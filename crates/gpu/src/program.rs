//! Ahead-of-time program compilation: lower a [`Kernel`] once per launch
//! shape into a [`Program`] that thousands of grid instances execute.
//!
//! The seed interpreter re-walked the kernel IR tree for every grid
//! instance, re-materializing `arange`/constant blocks and re-deriving
//! every schedule-invariant offset each time. Compilation hoists that
//! work with three coordinated analyses (item 3 records one retired):
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
//!    there is no per-row tier at all. Invariant instructions trapped inside per-instance loops
//!    are cached as *occurrence streams*: the row representative records
//!    one value per dynamic execution, later instances replay the
//!    stream. Costs are still charged to every instance (they are
//!    deterministic), so [`crate::KernelStats`] and timing stay
//!    bit-identical to the reference interpreter.
//! 2. **last-use liveness** — per-unit release lists return dead
//!    register buffers to the allocation pool immediately instead of
//!    waiting for the end-of-instance sweep, and the sweep itself only
//!    touches the per-instance registers.
//! 3. *(retired)* **superinstructions** — adjacent `Binary` pairs whose
//!    intermediate register died at once used to fuse into one dispatch.
//!    Since the register file is thread-local (`Rc`, no atomics per
//!    register write) the pairing no longer paid: with it off, perfbench's
//!    replays stayed within the interquartile range of the build with it
//!    on, on every workload (2-vCPU x86-64 VM, 5 alternating pairs of
//!    13 s runs each; median ops/s −1.0 % on `spmm_tc_exec`, −2.3 % on
//!    `irregular_exec`, −1.3 % on `coldstart_tune` against IQRs of 2.0 %,
//!    6.0 % and 40 %), so every instruction now dispatches alone.
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
//!    function of the kernel text — `infer_shapes`) the root is `[n, m]`
//!    and each leaf varies along at most one of the two axes: a *row
//!    term* `[n, 1]`, a *column term* `[1, m]` or `[m]`, or a scalar. So
//!    `off[i, j] = R[i] + C[j]` with `R` the sum of the row and scalar
//!    terms and `C` the sum of the column terms. The mask is absent, a
//!    row mask `[n, 1]` or a column mask `[1, m]`; a stored or added
//!    value broadcasts into `[n, m]`. Between the add that reads a leaf
//!    and the access nothing writes that leaf, because the site reads it
//!    when it executes (liveness counts that read: `for_each_read_ci`).
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
//!    (a prefix of consecutive elements) or one row per lane. Values go
//!    through the bodies row runs use (`load_values`, `write_values`), as
//!    do the instance-class trace, the script recorder and the atomic hit
//!    counts: an access site is an address stage followed by a shared
//!    value body.
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
//!    only outside it. Everything else (program ids, `arange`, metadata
//!    loads and arithmetic, masks, the offset trees) is the **index
//!    slice**. [`CUnit::value`], [`CNode::value`] and [`SiteInfo::value`]
//!    carry the split.
//!
//!    *Replayable.* A program whose index slice reads nothing but the
//!    program and its I32 arguments: no register derived from a float
//!    parameter (or from a parameter the kernel writes) reaches an offset
//!    or a mask, there is no `LoopDyn`, no I32 parameter is written, the
//!    lanes of every value site have a static shape and every parameter
//!    fits 32-bit addresses. [`Program::replay_decline`] names the first
//!    condition that fails ([`ReplayDecline`]); such programs — the CSR
//!    baselines, float-addressed kernels — launch exactly as before.
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
//!    a row* runs in full, as one machine whatever the thread budget,
//!    with a recorder hooked into the value sites, producing an
//!    **address script** — per executed value site, in
//!    order, the element address of each active row of lanes, taken
//!    right after the cost pass has bounds-checked them — plus the
//!    launch's `KernelReport`. Rows in arithmetic progression take three
//!    words however many they are; a gather or scatter lists its rows,
//!    one word each. Every later launch with that key executes only the
//!    value-slice units and nodes, feeds the same value bodies
//!    (`load_values`, `write_values`, the dot kernels) from the script,
//!    does no cost accounting and returns the stored report; an Analytic
//!    launch returns the report without interpreting anything. One-shot
//!    and alternating keys (autotune candidates, the paper harnesses,
//!    unique serve requests) never pay for a recording, a ready script is
//!    displaced only by a key that itself repeats, and a launch that
//!    fails leaves none. Entries live in one stream per execution
//!    frequency ([`SiteInfo::level`]) and are sought by shard, row and
//!    instance, so a script recorded by one machine is replayed at any
//!    thread count.
//!
//!    *One value path.* Full, recording and replayed launches run the same
//!    value bodies at every site. A full launch resolves a site's run (row
//!    run or staged lanes) and feeds it to the body; a recording launch
//!    also writes that run down; a replay decodes it. Only where the run
//!    comes from differs.
//!
//!    *Why no counter can move.* The recording launch *is* a full launch:
//!    its report is what that launch returns. A replay returns that
//!    report for the same program, metadata and device, under which every
//!    counter is determined — the index slice, which decides addresses,
//!    masks and trip counts, reads nothing else, and the float values a
//!    replay may change reach no counter (Analytic mode already computes
//!    every counter with all of them zero). Output bits: a replay runs
//!    the value slice's instructions in program order through the same
//!    bodies, with the addresses the full launch resolved; the per-launch
//!    dot-eligibility scan of the float operands still runs, so a NaN
//!    planted under a ready key flips the dot kernel exactly as it would
//!    on a first launch (`tests/address_script.rs`).
//!
//! Compilation is cheap (one pass per analysis over the instruction
//! tree), but `insum_inductor`'s `ProgramCache` still memoizes programs
//! across launches keyed by kernel fingerprint + grid + argument
//! metadata, so repeated executions and autotuning sweeps never re-lower.

use crate::block::{apply_binop, Shape4, MAX_RANK};
use crate::exact_dot::{all_finite, f32_exact};
use crate::interp::{GpuError, SECTOR};
use crate::script::ReplaySlot;
use insum_kernel::{param_usage, BinOp, Instr, Kernel, Reg};
use insum_tensor::{DType, Tensor};

mod value_slice;
pub use value_slice::ReplayDecline;
use value_slice::ValueSlice;

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
        body: Vec<CNode>,
    },
}

/// One instruction inside a per-instance region. `cached` is the
/// invariance level (0 grid-invariant, 1 row-invariant) of instructions
/// whose per-occurrence values the representative records and later
/// instances replay; `None` executes every time.
#[derive(Debug, Clone)]
pub(crate) struct CNode {
    pub(crate) cached: Option<u8>,
    /// In the value slice (analysis 7): a replayed launch executes it.
    pub(crate) value: bool,
    pub(crate) instr: CInstr,
}

/// A top-level unit: one instruction (possibly a whole loop) plus its
/// execution frequency and the per-instance registers that die with it.
#[derive(Debug, Clone)]
pub(crate) struct CUnit {
    pub(crate) mode: UnitMode,
    /// In the value slice (analysis 7): a replayed launch executes it.
    pub(crate) value: bool,
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
    /// value); `None` when `infer_shapes` cannot tell.
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
    /// Analysis 7: the slot a replayable program keeps its address
    /// script in, or why it keeps none.
    pub(crate) replay: Result<ReplaySlot, ReplayDecline>,
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
        let mut once = 0;
        let mut row = 0;
        let mut inst = 0;
        let mut cached = 0;
        fn count_cached(i: &CInstr, cached: &mut usize) {
            if let CInstr::Loop { body, .. } | CInstr::LoopDyn { body, .. } = i {
                for n in body {
                    if n.cached.is_some() {
                        *cached += 1;
                    }
                    count_cached(&n.instr, cached);
                }
            }
        }
        for u in &self.units {
            match u.mode {
                UnitMode::Once => once += 1,
                UnitMode::PerRow => row += 1,
                UnitMode::PerInstance => inst += 1,
            }
            count_cached(&u.instr, &mut cached);
        }
        (once, row, inst, cached)
    }

    /// Compile a kernel for a launch shape. `lens`/`dtypes` describe the
    /// argument tensors positionally (element counts and dtypes — the
    /// values are bound later, at launch time).
    ///
    /// # Errors
    ///
    /// * [`GpuError::Kernel`] if the kernel fails validation.
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
        let levels = compute_levels(kernel, &usage.written, gdims);
        let uses = reg_use_counts(kernel);
        let avals = compute_avals(kernel, dtypes, &usage.written);
        let params = ParamTable::new(lens, dtypes);
        let shapes = infer_shapes(kernel);
        let row_sites = RowSites::analyze(kernel, &uses, &shapes);
        let slice = ValueSlice::analyze(kernel, dtypes, &usage.written);

        let mut ctx = Lowering {
            levels: &levels,
            avals: &avals,
            params: &params,
            shapes: &shapes,
            slice: &slice,
            sites: Vec::new(),
            dedup_ok: avals.loops_ok,
        };
        let mut units = Vec::new();
        for top in &kernel.body {
            // A unit's frequency covers its whole subtree *and* every
            // register it writes: a prologue `full(...)` that a
            // per-instance loop also writes (the accumulator pattern)
            // must re-execute per instance to reset the register.
            let lvl = unit_level(top, &levels);
            let first_site = ctx.sites.len();
            let instr = ctx.lower_one(top, lvl >= 2, 0);
            if lvl < 2 {
                // Nothing in a once/per-row unit is stream-cached: its
                // sites all execute at the unit's own frequency.
                for site in &mut ctx.sites[first_site..] {
                    site.level = lvl;
                }
            }
            units.push(CUnit {
                mode: match lvl {
                    0 => UnitMode::Once,
                    1 => UnitMode::PerRow,
                    _ => UnitMode::PerInstance,
                },
                value: slice.contains(top),
                instr,
                release: Vec::new(),
            });
        }

        let level2_regs: Vec<Reg> = (0..kernel.num_regs)
            .filter(|&r| levels.reg[r] >= 2)
            .collect();
        let sites = ctx.sites;
        let dedup_ok = ctx.dedup_ok;
        assign_release_lists(&mut units, &level2_regs, kernel.num_regs, &row_sites);
        let replay = match slice.decline(&sites, &params) {
            Some(decline) => Err(decline),
            None => Ok(ReplaySlot::new(dtypes, &sites)),
        };

        let dot_f16 = {
            let floats: Vec<DType> = dtypes.iter().copied().filter(|d| d.is_float()).collect();
            !floats.is_empty() && floats.iter().all(|&d| d == DType::F16)
        };

        Ok(Program {
            name: kernel.name.clone(),
            param_names: kernel.params.iter().map(|p| p.name.clone()).collect(),
            num_regs: kernel.num_regs,
            grid: grid.to_vec(),
            gdims,
            instances,
            units,
            level2_regs,
            sites,
            dedup_ok,
            params,
            dot_sources: DotSources::analyze(kernel, &usage.written),
            row_sites,
            dot_f16,
            parallel_execute_ok: usage.no_read_write_params(),
            replay,
        })
    }
}

// ---------------------------------------------------------------------
// Dot-operand provenance (exact-product eligibility)
// ---------------------------------------------------------------------

/// Where each register's value comes from, as far as `tl.dot`
/// eligibility cares. A register's mask has bit `p` set when its
/// elements may be loaded from parameter `p`, and [`DotSources::INEXACT`]
/// set when they may be anything that is not provably f32-representable.
/// A mask without `INEXACT` means: every element is an f32-exact
/// constant or a raw element of one of the named read-only parameters,
/// moved around by `ExpandDims`/`Broadcast`/`View`/`Trans` only. Such a
/// value is f32-representable by construction (tensor storage is `f32`),
/// and finite exactly when those parameters are — which the launch
/// checks once per parameter, so each dot decides in O(1).
pub(crate) struct DotSources {
    /// Source mask per register.
    reg: Vec<u64>,
    /// Parameters some dot's eligibility depends on: the ones a launch
    /// scans for non-finite values.
    scanned_params: u64,
}

impl DotSources {
    /// Poison bit: the value is not provably f32-representable.
    const INEXACT: u64 = 1 << 63;

    fn analyze(kernel: &Kernel, written: &[bool]) -> DotSources {
        // Registers are not SSA (accumulators, loop-carried values):
        // a register's mask is the union over all its writers, reached
        // by iterating the monotone pass to a fixpoint.
        let mut reg = vec![0u64; kernel.num_regs];
        loop {
            let before = reg.clone();
            dot_sources_pass(&kernel.body, written, &mut reg);
            if reg == before {
                break;
            }
        }
        let mut scanned_params = 0u64;
        for instr in &kernel.body {
            visit_tree(instr, &mut |i| {
                if let Instr::Dot { a, b, .. } = i {
                    let mask = reg[*a] | reg[*b];
                    if mask & DotSources::INEXACT == 0 {
                        scanned_params |= mask;
                    }
                }
            });
        }
        DotSources {
            reg,
            scanned_params,
        }
    }

    /// The per-launch half of eligibility: which of the parameters a
    /// dot depends on hold a NaN or Inf right now. One pass over each
    /// such parameter; the result feeds [`DotSources::eligible`] for the
    /// whole launch, every shard included.
    pub(crate) fn nonfinite_params(&self, args: &[&mut Tensor]) -> u64 {
        let mut nonfinite = DotSources::INEXACT;
        // Bit 63 is the poison bit, so only parameters 0..63 have one.
        for (p, t) in args.iter().enumerate().take(63) {
            if self.scanned_params & (1 << p) != 0 && !all_finite(t.data()) {
                nonfinite |= 1 << p;
            }
        }
        nonfinite
    }

    /// Whether `dot(a, b)` may run the exact-product kernel this launch
    /// (`nonfinite` from [`DotSources::nonfinite_params`]): both operands
    /// provably f32-representable, and every parameter they draw from
    /// finite.
    #[inline]
    pub(crate) fn eligible(&self, a: Reg, b: Reg, nonfinite: u64) -> bool {
        (self.reg[a] | self.reg[b]) & nonfinite == 0
    }
}

fn dot_sources_pass(body: &[Instr], written: &[bool], reg: &mut [u64]) {
    let exact_const = |v: f64| {
        if f32_exact(v) {
            0
        } else {
            DotSources::INEXACT
        }
    };
    for instr in body {
        match instr {
            Instr::Const { dst, value } | Instr::Full { dst, value, .. } => {
                reg[*dst] |= exact_const(*value);
            }
            Instr::Load {
                dst, param, other, ..
            } => {
                // A parameter the kernel also writes holds whatever the
                // kernel computed, not what the launch-time scan saw;
                // masked-off lanes take `other`.
                reg[*dst] |= if written[*param] || *param >= 63 {
                    DotSources::INEXACT
                } else {
                    (1 << *param) | exact_const(*other)
                };
            }
            Instr::ExpandDims { dst, src, .. }
            | Instr::Broadcast { dst, src, .. }
            | Instr::View { dst, src, .. }
            | Instr::Trans { dst, src } => {
                let mask = reg[*src];
                reg[*dst] |= mask;
            }
            // Arithmetic results are arbitrary f64s. (Program ids,
            // `arange` lanes and loop counters are small integers, but
            // no kernel feeds them to a dot; poisoning them keeps the
            // rule one line long.)
            Instr::ProgramId { dst, .. }
            | Instr::Arange { dst, .. }
            | Instr::Binary { dst, .. }
            | Instr::Dot { dst, .. }
            | Instr::Sum { dst, .. } => reg[*dst] |= DotSources::INEXACT,
            Instr::Store { .. } | Instr::AtomicAdd { .. } => {}
            Instr::Loop { var, body, .. } | Instr::LoopDyn { var, body, .. } => {
                reg[*var] |= DotSources::INEXACT;
                dot_sources_pass(body, written, reg);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Separable access sites (row-run address streams)
// ---------------------------------------------------------------------

/// Which lane axis a leaf of a separable offset tree varies along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TermAxis {
    /// Shape `[n, 1]`: one value per row of lanes.
    Row,
    /// Shape `[1, m]` (or `[m]`): one value per column of lanes.
    Col,
    /// A scalar (every dimension 1).
    Scalar,
}

/// One step of an offset tree in postfix order: evaluating the steps on
/// a stack reproduces the kernel's own association of the adds, which is
/// what the generic fallback materialises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TreeOp {
    Leaf(Reg, TermAxis),
    Add,
}

/// The mask of a separable site, by the lane axis it varies along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SiteMask {
    None,
    /// Shape `[n, 1]`: whole rows of lanes are on or off.
    Rows(Reg),
    /// Shape `[1, m]`: whole columns of lanes are on or off.
    Cols(Reg),
}

/// A 2-D memory access whose offsets are `off[i, j] = R[i] + C[j]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RowSite {
    /// Rows of lanes.
    pub(crate) n: usize,
    /// Lanes per row.
    pub(crate) m: usize,
    pub(crate) tree: Vec<TreeOp>,
    pub(crate) mask: SiteMask,
}

/// Analysis 6 (see the module docs): which access sites are separable,
/// and which `Binary::Add`s exist only to form their offset blocks.
/// Derived from the kernel alone, like [`DotSources`].
pub(crate) struct RowSites {
    /// Per site id (lowering order), the recognised form if any.
    site: Vec<Option<RowSite>>,
    /// Per register, the lane count of the elided add that defines it.
    elided: Vec<Option<u64>>,
}

/// Leaves per offset tree. With every leaf an integer below 2^48 in
/// magnitude (checked at each execution), any partial sum of at most
/// this many leaves stays below 2^52, so f64 adds are exact in every
/// association and agree with the i64 sums the row walk forms.
pub(crate) const MAX_TREE_LEAVES: usize = 8;

impl RowSites {
    fn analyze(kernel: &Kernel, uses: &[u32], shapes: &[Option<Shape4>]) -> RowSites {
        let mut writers = vec![0u32; kernel.num_regs];
        for instr in &kernel.body {
            for_each_write(instr, &mut |r| writers[r] += 1);
        }
        let mut scan = SiteScan {
            shapes,
            uses,
            writers: &writers,
            add_def: vec![None; kernel.num_regs],
            next_body: 0,
            out: RowSites {
                site: Vec::new(),
                elided: vec![None; kernel.num_regs],
            },
        };
        scan.body(&kernel.body);
        scan.out
    }

    /// The separable form of site `site`, if it was recognised.
    #[inline]
    pub(crate) fn site(&self, site: u32) -> Option<&RowSite> {
        self.site.get(site as usize).and_then(Option::as_ref)
    }

    /// When `dst` is defined by an elided offset-forming add, the number
    /// of lanes that add computes (its `flops_scalar` charge).
    #[inline]
    pub(crate) fn elided_lanes(&self, dst: Reg) -> Option<u64> {
        self.elided[dst]
    }

    fn for_each_leaf(&self, site: u32, f: &mut impl FnMut(Reg)) {
        if let Some(rs) = self.site(site) {
            for op in &rs.tree {
                if let TreeOp::Leaf(r, _) = op {
                    f(*r);
                }
            }
        }
    }

    /// `(recognised, total)` access sites.
    fn counts(&self) -> (usize, usize) {
        (self.site.iter().flatten().count(), self.site.len())
    }
}

/// A single-writer `dst = a + b` at top level of some body.
#[derive(Clone, Copy)]
struct AddDef {
    body: u32,
    idx: usize,
    a: Reg,
    b: Reg,
}

struct SiteScan<'a> {
    shapes: &'a [Option<Shape4>],
    uses: &'a [u32],
    writers: &'a [u32],
    add_def: Vec<Option<AddDef>>,
    next_body: u32,
    out: RowSites,
}

impl SiteScan<'_> {
    /// Walk one body in program order — the order lowering numbers
    /// sites in — recognising each access against the adds of the same
    /// body.
    fn body(&mut self, body: &[Instr]) {
        let id = self.next_body;
        self.next_body += 1;
        for (idx, instr) in body.iter().enumerate() {
            if let Instr::Binary {
                dst,
                op: BinOp::Add,
                a,
                b,
            } = instr
            {
                if self.writers[*dst] == 1 {
                    self.add_def[*dst] = Some(AddDef {
                        body: id,
                        idx,
                        a: *a,
                        b: *b,
                    });
                }
            }
        }
        for (idx, instr) in body.iter().enumerate() {
            match instr {
                Instr::Load { offset, mask, .. } => {
                    self.access(body, id, idx, *offset, *mask, None);
                }
                Instr::Store {
                    offset,
                    value,
                    mask,
                    ..
                }
                | Instr::AtomicAdd {
                    offset,
                    value,
                    mask,
                    ..
                } => self.access(body, id, idx, *offset, *mask, Some(*value)),
                Instr::Loop { body, .. } | Instr::LoopDyn { body, .. } => self.body(body),
                _ => {}
            }
        }
    }

    fn access(
        &mut self,
        body: &[Instr],
        id: u32,
        idx: usize,
        offset: Reg,
        mask: Option<Reg>,
        value: Option<Reg>,
    ) {
        let found = self.recognise(body, id, idx, offset, mask, value);
        self.out.site.push(found.map(|(site, adds)| {
            for (dst, lanes) in adds {
                self.out.elided[dst] = Some(lanes);
            }
            site
        }));
    }

    /// The separable form of the access at `body[idx]`, with the
    /// `(dst, lanes)` of the adds it makes unnecessary.
    fn recognise(
        &self,
        body: &[Instr],
        id: u32,
        idx: usize,
        offset: Reg,
        mask: Option<Reg>,
        value: Option<Reg>,
    ) -> Option<(RowSite, Vec<(Reg, u64)>)> {
        let off_shape = self.shapes[offset]?;
        let &[n, m] = off_shape.as_slice() else {
            return None;
        };
        if n == 0 || m == 0 {
            return None;
        }
        let mut found = OffsetTree::default();
        self.collect(offset, id, idx, (n, m), &mut found)?;
        let OffsetTree { ops, adds, leaves } = found;
        if ops.last() != Some(&TreeOp::Add) {
            return None;
        }
        // The site reads a leaf when it executes, not where the add that
        // consumed it stood: nothing in between may overwrite it.
        for &(leaf, read_at) in &leaves {
            let mut clobbered = false;
            for instr in &body[read_at + 1..idx] {
                for_each_write(instr, &mut |r| clobbered |= r == leaf);
            }
            if clobbered {
                return None;
            }
        }
        let mask = match mask {
            None => SiteMask::None,
            Some(r) => match lane_axis(self.shapes[r]?, n, m)? {
                TermAxis::Row => SiteMask::Rows(r),
                TermAxis::Col => SiteMask::Cols(r),
                // One row of lanes: a `[1, 1]` mask is its row mask.
                TermAxis::Scalar if n == 1 => SiteMask::Rows(r),
                TermAxis::Scalar => return None,
            },
        };
        if let Some(v) = value {
            // The value must broadcast *into* the offset block, or some
            // address would be written more than once per lane.
            let vs = self.shapes[v]?;
            if Shape4::try_joint(vs.as_slice(), &[n, m])? != off_shape {
                return None;
            }
        }
        Some((
            RowSite {
                n,
                m,
                tree: ops,
                mask,
            },
            adds,
        ))
    }

    /// Append the postfix form of `reg`'s subtree: an add that this site
    /// alone reads (and that stands before `before`, its reader, in the
    /// same body) is an inner node, anything else a leaf.
    fn collect(
        &self,
        reg: Reg,
        id: u32,
        before: usize,
        nm: (usize, usize),
        out: &mut OffsetTree,
    ) -> Option<()> {
        if let Some(d) = self.add_def[reg] {
            if d.body == id && d.idx < before && self.uses[reg] == 1 {
                self.collect(d.a, id, d.idx, nm, out)?;
                self.collect(d.b, id, d.idx, nm, out)?;
                out.ops.push(TreeOp::Add);
                out.adds.push((reg, self.shapes[reg]?.volume() as u64));
                return Some(());
            }
        }
        if out.leaves.len() >= MAX_TREE_LEAVES {
            return None;
        }
        let axis = lane_axis(self.shapes[reg]?, nm.0, nm.1)?;
        out.ops.push(TreeOp::Leaf(reg, axis));
        out.leaves.push((reg, before));
        Some(())
    }
}

/// An offset tree under construction.
#[derive(Default)]
struct OffsetTree {
    /// Postfix form.
    ops: Vec<TreeOp>,
    /// `(dst, lanes)` of the inner adds.
    adds: Vec<(Reg, u64)>,
    /// `(reg, position of the add that reads it)` of the leaves.
    leaves: Vec<(Reg, usize)>,
}

/// The lane axis a block of `shape` varies along inside an `[n, m]`
/// access; `None` when it varies along both or does not broadcast into
/// `[n, m]`.
fn lane_axis(shape: Shape4, n: usize, m: usize) -> Option<TermAxis> {
    let (d0, d1) = match *shape.as_slice() {
        [] => (1, 1),
        [b] => (1, b),
        [a, b] => (a, b),
        _ => return None,
    };
    match (d0 != 1, d1 != 1) {
        (true, true) => None,
        (true, false) => (d0 == n).then_some(TermAxis::Row),
        (false, true) => (d1 == m).then_some(TermAxis::Col),
        (false, false) => Some(TermAxis::Scalar),
    }
}

/// Static block shapes: every instruction's result shape is a function
/// of the kernel text alone. `None` for a register whose writers disagree
/// or whose shape depends on such a register.
fn infer_shapes(kernel: &Kernel) -> Vec<Option<Shape4>> {
    #[derive(Clone, Copy, PartialEq)]
    enum S {
        Unset,
        Known(Shape4),
        Unknown,
    }
    fn get(st: &[S], r: Reg) -> Option<Shape4> {
        match st[r] {
            S::Known(s) => Some(s),
            _ => None,
        }
    }
    fn set(st: &mut [S], r: Reg, v: Option<Shape4>) {
        st[r] = match (st[r], v) {
            (S::Unset, Some(s)) => S::Known(s),
            (S::Known(old), Some(s)) if old == s => S::Known(s),
            _ => S::Unknown,
        };
    }
    fn packed(shape: &[usize]) -> Option<Shape4> {
        (shape.len() <= MAX_RANK).then(|| Shape4::from_slice(shape))
    }
    fn pass(body: &[Instr], st: &mut [S]) {
        for instr in body {
            match instr {
                Instr::ProgramId { dst, .. } | Instr::Const { dst, .. } => {
                    set(st, *dst, packed(&[]));
                }
                Instr::Arange { dst, len } => set(st, *dst, packed(&[*len])),
                Instr::Full { dst, shape, .. }
                | Instr::Broadcast { dst, shape, .. }
                | Instr::View { dst, shape, .. } => set(st, *dst, packed(shape)),
                Instr::Binary { dst, a, b, .. } => {
                    let v = get(st, *a)
                        .zip(get(st, *b))
                        .and_then(|(x, y)| Shape4::try_joint(x.as_slice(), y.as_slice()));
                    set(st, *dst, v);
                }
                Instr::ExpandDims { dst, src, axis } => {
                    let v = get(st, *src).and_then(|s| {
                        let mut dims = s.as_slice().to_vec();
                        (*axis <= dims.len()).then(|| dims.insert(*axis, 1))?;
                        packed(&dims)
                    });
                    set(st, *dst, v);
                }
                Instr::Trans { dst, src } => {
                    let v = get(st, *src).and_then(|s| match *s.as_slice() {
                        [a, b] => packed(&[b, a]),
                        _ => None,
                    });
                    set(st, *dst, v);
                }
                Instr::Sum { dst, src, axis } => {
                    let v = get(st, *src).and_then(|s| {
                        let mut dims = s.as_slice().to_vec();
                        (*axis < dims.len()).then(|| dims.remove(*axis))?;
                        packed(&dims)
                    });
                    set(st, *dst, v);
                }
                Instr::Dot { dst, a, b } => {
                    let v = get(st, *a).zip(get(st, *b)).and_then(|(x, y)| {
                        match (x.as_slice(), y.as_slice()) {
                            (&[m, _], &[_, n]) => packed(&[m, n]),
                            _ => None,
                        }
                    });
                    set(st, *dst, v);
                }
                Instr::Load {
                    dst, offset, mask, ..
                } => {
                    let v = get(st, *offset).and_then(|o| match mask {
                        None => Some(o),
                        Some(m) => Shape4::try_joint(o.as_slice(), get(st, *m)?.as_slice()),
                    });
                    set(st, *dst, v);
                }
                Instr::Store { .. } | Instr::AtomicAdd { .. } => {}
                Instr::Loop { var, body, .. } | Instr::LoopDyn { var, body, .. } => {
                    set(st, *var, packed(&[]));
                    pass(body, st);
                }
            }
        }
    }
    // `Unset → Known → Unknown` only ever moves forward, so the passes
    // converge; a register read before any writer reached it makes its
    // reader `Unknown` straight away, which is merely conservative.
    let mut st = vec![S::Unset; kernel.num_regs];
    loop {
        let before = st.clone();
        pass(&kernel.body, &mut st);
        if st == before {
            break;
        }
    }
    (0..kernel.num_regs).map(|r| get(&st, r)).collect()
}

// ---------------------------------------------------------------------
// pid-dependence levels
// ---------------------------------------------------------------------

struct Levels {
    /// Invariance level per register: 0 grid-invariant, 1 row-invariant
    /// (axis 0 free), 2 per-instance.
    reg: Vec<u8>,
}

/// Fixpoint over the instruction tree: an instruction's level is the max
/// of its intrinsic level (`program_id` axes, loads from written
/// parameters) and its operands' register levels; a register's level is
/// the max over its writers. Loop-carried dependences converge in a few
/// passes.
///
/// The grid decides what `program_id` costs: along an axis of extent 1
/// it is the constant 0 (level 0), and when axis 0 has extent 1 a row is
/// one instance, so a per-row tier would record streams every instance
/// and replay them never — level 1 then folds into level 2 and only the
/// grid-invariant tier remains (no node of such a program is cached at
/// level 1).
fn compute_levels(kernel: &Kernel, written: &[bool], gdims: [usize; 3]) -> Levels {
    let mut reg = vec![0u8; kernel.num_regs];
    loop {
        let before = reg.clone();
        levels_pass(&kernel.body, written, gdims, &mut reg);
        if reg == before {
            break;
        }
    }
    if gdims[0] == 1 {
        for l in &mut reg {
            if *l == 1 {
                *l = 2;
            }
        }
    }
    Levels { reg }
}

fn levels_pass(body: &[Instr], written: &[bool], gdims: [usize; 3], reg: &mut [u8]) {
    for instr in body {
        match instr {
            Instr::ProgramId { dst, axis } => {
                let lvl = match *axis {
                    a if gdims.get(a) == Some(&1) => 0,
                    0 => 2,
                    _ => 1,
                };
                reg[*dst] = reg[*dst].max(lvl);
            }
            Instr::Const { dst, .. } | Instr::Arange { dst, .. } | Instr::Full { dst, .. } => {
                // Intrinsically invariant; level raised only by other
                // writers of the same register.
                let _ = dst;
            }
            Instr::Binary { dst, a, b, .. } => {
                let lvl = reg[*a].max(reg[*b]);
                reg[*dst] = reg[*dst].max(lvl);
            }
            Instr::ExpandDims { dst, src, .. }
            | Instr::Broadcast { dst, src, .. }
            | Instr::View { dst, src, .. }
            | Instr::Trans { dst, src }
            | Instr::Sum { dst, src, .. } => {
                let lvl = reg[*src];
                reg[*dst] = reg[*dst].max(lvl);
            }
            Instr::Load {
                dst,
                param,
                offset,
                mask,
                ..
            } => {
                // Loads from parameters the kernel also writes see
                // evolving data: never cacheable across instances.
                let base = if written[*param] { 2 } else { 0 };
                let lvl = base.max(reg[*offset]).max(mask.map_or(0, |m| reg[m]));
                reg[*dst] = reg[*dst].max(lvl);
            }
            Instr::Store { .. } | Instr::AtomicAdd { .. } => {}
            Instr::Dot { dst, a, b } => {
                let lvl = reg[*a].max(reg[*b]);
                reg[*dst] = reg[*dst].max(lvl);
            }
            Instr::Loop { body, .. } => levels_pass(body, written, gdims, reg),
            Instr::LoopDyn {
                var,
                start,
                end,
                body,
            } => {
                let bounds = reg[*start].max(reg[*end]);
                reg[*var] = reg[*var].max(bounds);
                levels_pass(body, written, gdims, reg);
            }
        }
    }
}

/// The level at which an instruction must execute: the max level of
/// every register it writes, plus 2 for memory writes (their effects
/// accumulate or must stay ordered against other instances) and the
/// levels of dynamic loop bounds (they control trip counts).
fn unit_level(instr: &Instr, levels: &Levels) -> u8 {
    let mut lvl = 0u8;
    visit_tree(instr, &mut |i| match i {
        Instr::Store { .. } | Instr::AtomicAdd { .. } => lvl = 2,
        Instr::LoopDyn { start, end, .. } => {
            lvl = lvl.max(levels.reg[*start]).max(levels.reg[*end]);
        }
        _ => {}
    });
    for_each_write(instr, &mut |r| lvl = lvl.max(levels.reg[r]));
    lvl
}

fn visit_tree(instr: &Instr, f: &mut impl FnMut(&Instr)) {
    f(instr);
    if let Instr::Loop { body, .. } | Instr::LoopDyn { body, .. } = instr {
        for i in body {
            visit_tree(i, f);
        }
    }
}

fn for_each_write(instr: &Instr, f: &mut impl FnMut(Reg)) {
    match instr {
        Instr::ProgramId { dst, .. }
        | Instr::Const { dst, .. }
        | Instr::Arange { dst, .. }
        | Instr::Full { dst, .. }
        | Instr::Binary { dst, .. }
        | Instr::ExpandDims { dst, .. }
        | Instr::Broadcast { dst, .. }
        | Instr::View { dst, .. }
        | Instr::Trans { dst, .. }
        | Instr::Load { dst, .. }
        | Instr::Dot { dst, .. }
        | Instr::Sum { dst, .. } => f(*dst),
        Instr::Store { .. } | Instr::AtomicAdd { .. } => {}
        Instr::Loop { var, body, .. } | Instr::LoopDyn { var, body, .. } => {
            f(*var);
            for i in body {
                for_each_write(i, f);
            }
        }
    }
}

/// Visit every register `instr` reads, recursing into loop bodies.
fn for_each_read(instr: &Instr, f: &mut impl FnMut(Reg)) {
    match instr {
        Instr::ProgramId { .. }
        | Instr::Const { .. }
        | Instr::Arange { .. }
        | Instr::Full { .. } => {}
        Instr::Binary { a, b, .. } | Instr::Dot { a, b, .. } => {
            f(*a);
            f(*b);
        }
        Instr::ExpandDims { src, .. }
        | Instr::Broadcast { src, .. }
        | Instr::View { src, .. }
        | Instr::Trans { src, .. }
        | Instr::Sum { src, .. } => f(*src),
        Instr::Load { offset, mask, .. } => {
            f(*offset);
            if let Some(m) = mask {
                f(*m);
            }
        }
        Instr::Store {
            offset,
            value,
            mask,
            ..
        }
        | Instr::AtomicAdd {
            offset,
            value,
            mask,
            ..
        } => {
            f(*offset);
            f(*value);
            if let Some(m) = mask {
                f(*m);
            }
        }
        Instr::Loop { body, .. } => {
            for i in body {
                for_each_read(i, f);
            }
        }
        Instr::LoopDyn {
            start, end, body, ..
        } => {
            f(*start);
            f(*end);
            for i in body {
                for_each_read(i, f);
            }
        }
    }
}

/// Visit every register `instr` reads, recursing into loop bodies. A
/// recognised separable site also reads the leaves of its offset tree
/// (see [`RowSites`]), so they stay live until the access.
fn for_each_read_ci(instr: &CInstr, row_sites: &RowSites, f: &mut impl FnMut(Reg)) {
    match instr {
        CInstr::ProgramId { .. }
        | CInstr::Const { .. }
        | CInstr::Arange { .. }
        | CInstr::Full { .. } => {}
        CInstr::Binary { a, b, .. } | CInstr::Dot { a, b, .. } => {
            f(*a);
            f(*b);
        }
        CInstr::ExpandDims { src, .. }
        | CInstr::Broadcast { src, .. }
        | CInstr::View { src, .. }
        | CInstr::Trans { src, .. }
        | CInstr::Sum { src, .. } => f(*src),
        CInstr::Load {
            offset, mask, site, ..
        } => {
            f(*offset);
            if let Some(m) = mask {
                f(*m);
            }
            row_sites.for_each_leaf(*site, f);
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
            f(*offset);
            f(*value);
            if let Some(m) = mask {
                f(*m);
            }
            row_sites.for_each_leaf(*site, f);
        }
        CInstr::Loop { body, .. } => {
            for n in body {
                for_each_read_ci(&n.instr, row_sites, f);
            }
        }
        CInstr::LoopDyn {
            start, end, body, ..
        } => {
            f(*start);
            f(*end);
            for n in body {
                for_each_read_ci(&n.instr, row_sites, f);
            }
        }
    }
}

/// Last-use liveness at top-level granularity: after the final unit that
/// reads a per-instance register (`level2_regs`), its buffer is dead.
/// A separable site reads the leaves of its offset tree, so the lists
/// depend on [`RowSites`].
fn assign_release_lists(
    units: &mut [CUnit],
    level2_regs: &[Reg],
    num_regs: usize,
    row_sites: &RowSites,
) {
    let mut last_use: Vec<Option<usize>> = vec![None; num_regs];
    for (i, unit) in units.iter().enumerate() {
        for_each_read_ci(&unit.instr, row_sites, &mut |r| last_use[r] = Some(i));
    }
    for &r in level2_regs {
        if let Some(i) = last_use[r] {
            units[i].release.push(r);
        }
    }
}

fn reg_use_counts(kernel: &Kernel) -> Vec<u32> {
    let mut uses = vec![0u32; kernel.num_regs];
    // `for_each_read` recurses into loop bodies, so one pass over the top
    // level counts every read in the program.
    for instr in &kernel.body {
        for_each_read(instr, &mut |r| uses[r] += 1);
    }
    uses
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

struct Lowering<'a> {
    levels: &'a Levels,
    avals: &'a Avals,
    params: &'a ParamTable,
    shapes: &'a [Option<Shape4>],
    slice: &'a ValueSlice,
    sites: Vec<SiteInfo>,
    dedup_ok: bool,
}

impl Lowering<'_> {
    /// Lower a loop body. `trip_level` is the invariance level of every
    /// enclosing loop's trip count: a node's occurrence stream is only
    /// aligned across instances when both its value *and* the number of
    /// times control reaches it are invariant, so the effective cache
    /// level is the max of the two.
    fn lower_body(&mut self, body: &[Instr], per_instance: bool, trip_level: u8) -> Vec<CNode> {
        let mut nodes = Vec::with_capacity(body.len());
        for instr in body {
            let lvl = unit_level(instr, self.levels).max(trip_level);
            let value = self.slice.contains(instr);
            let instr = self.lower_one(instr, per_instance, trip_level);
            let cacheable = per_instance
                && lvl <= 1
                && !matches!(
                    instr,
                    CInstr::Loop { .. }
                        | CInstr::LoopDyn { .. }
                        | CInstr::Store { .. }
                        | CInstr::AtomicAdd { .. }
                );
            if let (true, CInstr::Load { site, .. }) = (cacheable, &instr) {
                // Executed by the shard's or the row's representative only.
                self.sites[*site as usize].level = lvl;
            }
            nodes.push(CNode {
                cached: if cacheable { Some(lvl) } else { None },
                value,
                instr,
            });
        }
        nodes
    }

    fn lower_one(&mut self, instr: &Instr, per_instance: bool, trip_level: u8) -> CInstr {
        match instr {
            Instr::ProgramId { dst, axis } => CInstr::ProgramId {
                dst: *dst,
                axis: *axis,
            },
            Instr::Const { dst, value } => CInstr::Const {
                dst: *dst,
                value: *value,
            },
            Instr::Arange { dst, len } => CInstr::Arange {
                dst: *dst,
                len: *len,
            },
            Instr::Full { dst, shape, value } => CInstr::Full {
                dst: *dst,
                shape: shape.clone(),
                value: *value,
            },
            Instr::Binary { dst, op, a, b } => CInstr::Binary {
                dst: *dst,
                op: *op,
                a: *a,
                b: *b,
            },
            Instr::ExpandDims { dst, src, axis } => CInstr::ExpandDims {
                dst: *dst,
                src: *src,
                axis: *axis,
            },
            Instr::Broadcast { dst, src, shape } => CInstr::Broadcast {
                dst: *dst,
                src: *src,
                shape: shape.clone(),
            },
            Instr::View { dst, src, shape } => CInstr::View {
                dst: *dst,
                src: *src,
                shape: shape.clone(),
            },
            Instr::Trans { dst, src } => CInstr::Trans {
                dst: *dst,
                src: *src,
            },
            Instr::Load {
                dst,
                param,
                offset,
                mask,
                other,
            } => {
                let site = self.push_site(*param, *offset, *mask, None, self.slice.needs(*dst));
                CInstr::Load {
                    dst: *dst,
                    offset: *offset,
                    mask: *mask,
                    other: *other,
                    site,
                }
            }
            Instr::Store {
                param,
                offset,
                value,
                mask,
            } => {
                let site = self.push_site(*param, *offset, *mask, Some((*value, false)), true);
                CInstr::Store {
                    offset: *offset,
                    value: *value,
                    mask: *mask,
                    site,
                }
            }
            Instr::AtomicAdd {
                param,
                offset,
                value,
                mask,
            } => {
                let site = self.push_site(*param, *offset, *mask, Some((*value, true)), true);
                CInstr::AtomicAdd {
                    offset: *offset,
                    value: *value,
                    mask: *mask,
                    site,
                }
            }
            Instr::Dot { dst, a, b } => CInstr::Dot {
                dst: *dst,
                a: *a,
                b: *b,
            },
            Instr::Sum { dst, src, axis } => CInstr::Sum {
                dst: *dst,
                src: *src,
                axis: *axis,
            },
            Instr::Loop {
                var,
                start,
                end,
                step,
                body,
            } => CInstr::Loop {
                var: *var,
                start: *start,
                end: *end,
                step: *step,
                body: self.lower_body(body, per_instance, trip_level),
            },
            Instr::LoopDyn {
                var,
                start,
                end,
                body,
            } => CInstr::LoopDyn {
                var: *var,
                start: *start,
                end: *end,
                body: self.lower_body(
                    body,
                    per_instance,
                    trip_level
                        .max(self.levels.reg[*start])
                        .max(self.levels.reg[*end]),
                ),
            },
        }
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
        let coeff = match self.avals.reg[offset] {
            AV::Known { .. } | AV::NX { .. } => Some(0.0),
            AV::Aff(c) if ((c.abs() as u64) * esize).is_multiple_of(SECTOR) => Some(c),
            _ => None,
        };
        let mask_ok = match mask {
            None => true,
            Some(m) => !matches!(self.avals.reg[m], AV::Aff(_) | AV::Bad),
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
        id
    }
}

// ---------------------------------------------------------------------
// Affine address-stream analysis (analytic instance classes)
// ---------------------------------------------------------------------

/// Abstract value of a register along grid axis 0, under *analytic*
/// execution semantics (float loads produce zeros). `int` tracks
/// provably-integer values: affine shifts are exact in `f64` only along
/// all-integer chains, so `Aff` is produced and propagated only through
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AV {
    /// Scalar compile-time constant (axis-0-invariant; usable as a
    /// multiplication coefficient when integral).
    Known { value: f64 },
    /// Axis-0-invariant, not a known constant.
    NX { int: bool },
    /// `value = base + pid0 · c` elementwise, with integer values and a
    /// compile-time integer constant `c != 0`.
    Aff(f64),
    /// Unknown axis-0 dependence.
    Bad,
}

impl AV {
    fn invariant(self) -> bool {
        matches!(self, AV::Known { .. } | AV::NX { .. })
    }

    fn integral(self) -> bool {
        match self {
            AV::Known { value } => value.fract() == 0.0,
            AV::NX { int } => int,
            AV::Aff(_) => true,
            AV::Bad => false,
        }
    }

    fn join(self, other: AV) -> AV {
        if self == other {
            return self;
        }
        match (self, other) {
            (AV::Known { .. } | AV::NX { .. }, AV::Known { .. } | AV::NX { .. }) => AV::NX {
                int: self.integral() && other.integral(),
            },
            _ => AV::Bad,
        }
    }
}

struct Avals {
    reg: Vec<AV>,
    /// No dynamic loop has axis-0-varying trip counts.
    loops_ok: bool,
}

fn compute_avals(kernel: &Kernel, dtypes: &[DType], written: &[bool]) -> Avals {
    let mut reg = vec![AV::NX { int: true }; kernel.num_regs];
    let mut initialized = vec![false; kernel.num_regs];
    let mut loops_ok = true;
    // Fixpoint with join-on-rewrite: loop-carried values that change
    // across iterations widen until stable (or to Bad). Joins are
    // monotone on a 3-level lattice, so convergence takes at most
    // ~3 · num_regs passes; if the safety cap is somehow hit anyway,
    // degrade every register to Bad rather than ship an
    // under-approximation (a stale "invariant" classification would
    // silently break the bit-identity of instance-class replay).
    let cap = 3 * kernel.num_regs + 8;
    let mut converged = false;
    for _ in 0..cap {
        let before = reg.clone();
        avals_pass(
            &kernel.body,
            dtypes,
            written,
            &mut reg,
            &mut initialized,
            &mut loops_ok,
        );
        if reg == before {
            converged = true;
            break;
        }
    }
    if !converged {
        reg.fill(AV::Bad);
        loops_ok = false;
    }
    Avals { reg, loops_ok }
}

fn set_aval(reg: &mut [AV], initialized: &mut [bool], r: Reg, v: AV) {
    if initialized[r] {
        reg[r] = reg[r].join(v);
    } else {
        reg[r] = v;
        initialized[r] = true;
    }
}

fn avals_pass(
    body: &[Instr],
    dtypes: &[DType],
    written: &[bool],
    reg: &mut [AV],
    initialized: &mut [bool],
    loops_ok: &mut bool,
) {
    for instr in body {
        match instr {
            Instr::ProgramId { dst, axis } => {
                let v = if *axis == 0 {
                    AV::Aff(1.0)
                } else {
                    AV::NX { int: true }
                };
                set_aval(reg, initialized, *dst, v);
            }
            Instr::Const { dst, value } => {
                set_aval(reg, initialized, *dst, AV::Known { value: *value })
            }
            Instr::Arange { dst, .. } => set_aval(reg, initialized, *dst, AV::NX { int: true }),
            Instr::Full { dst, value, .. } => set_aval(
                reg,
                initialized,
                *dst,
                AV::NX {
                    int: value.fract() == 0.0,
                },
            ),
            Instr::Binary { dst, op, a, b } => {
                let v = binary_aval(*op, reg[*a], reg[*b]);
                set_aval(reg, initialized, *dst, v);
            }
            Instr::ExpandDims { dst, src, .. }
            | Instr::Broadcast { dst, src, .. }
            | Instr::View { dst, src, .. }
            | Instr::Trans { dst, src } => {
                let v = reg[*src];
                set_aval(reg, initialized, *dst, v);
            }
            Instr::Sum { dst, src, .. } => {
                // Sums of invariant blocks are invariant; affine blocks
                // would need the (runtime) axis length as a coefficient.
                let v = match reg[*src] {
                    AV::Known { .. } | AV::NX { .. } => AV::NX {
                        int: reg[*src].integral(),
                    },
                    _ => AV::Bad,
                };
                set_aval(reg, initialized, *dst, v);
            }
            Instr::Dot { dst, .. } => {
                // Analytic `tl.dot` yields a zeros block whatever the
                // inputs; only the (invariant) shapes matter.
                set_aval(reg, initialized, *dst, AV::NX { int: true });
            }
            Instr::Load {
                dst,
                param,
                offset,
                mask,
                other,
            } => {
                let mask_av = mask.map_or(AV::NX { int: true }, |m| reg[m]);
                let v = if written[*param] {
                    // Conservative: data under a written parameter may
                    // change between launches of the same program.
                    AV::Bad
                } else if dtypes[*param] == DType::I32 {
                    // Metadata loads read real values in analytic mode.
                    if reg[*offset].invariant() && mask_av.invariant() {
                        AV::NX { int: true }
                    } else {
                        AV::Bad
                    }
                } else {
                    // Float loads are zeros/`other` in analytic mode: the
                    // value depends only on the mask.
                    if mask_av.invariant() {
                        AV::NX {
                            int: other.fract() == 0.0,
                        }
                    } else {
                        AV::Bad
                    }
                };
                set_aval(reg, initialized, *dst, v);
            }
            Instr::Store { .. } | Instr::AtomicAdd { .. } => {}
            Instr::Loop { var, body, .. } => {
                set_aval(reg, initialized, *var, AV::NX { int: true });
                avals_pass(body, dtypes, written, reg, initialized, loops_ok);
            }
            Instr::LoopDyn {
                var,
                start,
                end,
                body,
            } => {
                if !(reg[*start].invariant() && reg[*end].invariant()) {
                    // Axis-0-varying trip counts: per-instance costs
                    // genuinely differ, no class dedup.
                    *loops_ok = false;
                }
                set_aval(reg, initialized, *var, AV::NX { int: true });
                avals_pass(body, dtypes, written, reg, initialized, loops_ok);
            }
        }
    }
}

fn binary_aval(op: BinOp, a: AV, b: AV) -> AV {
    use BinOp::*;
    if a == AV::Bad || b == AV::Bad {
        return AV::Bad;
    }
    if let (AV::Known { value: x }, AV::Known { value: y }) = (a, b) {
        return AV::Known {
            value: apply_binop(op, x, y),
        };
    }
    let coeff = |v: AV| match v {
        AV::Aff(c) => c,
        _ => 0.0,
    };
    let both_int = a.integral() && b.integral();
    match op {
        Add | Sub => {
            let c = if op == Add {
                coeff(a) + coeff(b)
            } else {
                coeff(a) - coeff(b)
            };
            if matches!(a, AV::Aff(_)) || matches!(b, AV::Aff(_)) {
                // Affine shifts are exact only along all-integer chains.
                if !both_int {
                    return AV::Bad;
                }
                if c == 0.0 {
                    // Cancelling coefficients: exact integer arithmetic
                    // means the value is axis-0-invariant again.
                    AV::NX { int: true }
                } else {
                    AV::Aff(c)
                }
            } else {
                AV::NX { int: both_int }
            }
        }
        Mul => match (a, b) {
            (AV::Known { value: k }, AV::Aff(c)) | (AV::Aff(c), AV::Known { value: k }) => {
                if k.fract() != 0.0 {
                    AV::Bad
                } else if c * k == 0.0 {
                    AV::NX { int: true }
                } else {
                    AV::Aff(c * k)
                }
            }
            _ if a.invariant() && b.invariant() => AV::NX { int: both_int },
            _ => AV::Bad,
        },
        Div => {
            if a.invariant() && b.invariant() {
                AV::NX { int: false }
            } else {
                AV::Bad
            }
        }
        FloorDiv | Lt | Le | Eq | Ge | And => {
            if a.invariant() && b.invariant() {
                AV::NX { int: true }
            } else {
                AV::Bad
            }
        }
        Mod | Min | Max => {
            if a.invariant() && b.invariant() {
                AV::NX { int: both_int }
            } else {
                AV::Bad
            }
        }
    }
}
