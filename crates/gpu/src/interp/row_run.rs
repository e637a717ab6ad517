//! Runs: the one form in which an access site's resolved addresses meet
//! the value bodies. A run is `n` rows of `m` lanes, row `i` addressing
//! the consecutive elements `rows[i] ..`; a site reaches it three ways.
//!
//! * A separable 2-D site (`program.rs`, analysis 6) whose offsets are
//!   `R[i] + C[j]` with `C` a run of consecutive integers *is* `n` ranges
//!   of `m` consecutive elements, and is resolved, costed and executed as
//!   such — no offset block, no per-lane walk ([`resolve_rows`]).
//! * Any other site runs the per-lane cost pass of the parent module
//!   (`record_access`: coalescing, bounds, truncation of non-integral
//!   offsets) and then stages its active lanes once ([`stage_lanes`]): one
//!   row when they are a prefix of consecutive elements, one row per lane
//!   otherwise.
//! * A replayed site decodes its run from the address script.
//!
//! Whichever way, the run then feeds the instance-class trace, the script
//! recorder, the atomic hit counts and the value bodies
//! ([`Machine::load_values`], [`Machine::write_values`]) — one definition
//! of what an access does to tensor data. Row runs must agree with the
//! per-lane path lane for lane (`tests/row_sites.rs` holds both to the
//! seed interpreter); whatever the conditions in [`resolve_rows`] do not
//! cover goes there.

use super::{
    consecutive, ArgsView, Machine, ScriptIo, SectorSet, TraceEntry, WriteOp, WriteSink, SECTOR,
    WARP,
};
use crate::block::{Block, PoolBuf, Shape4};
use crate::isa::{Body, Isa};
use crate::program::{RowSite, SiteMask, TermAxis, TreeOp};
use crate::script::{Bases, Entry, Form, INACTIVE};
use crate::{GpuError, Mode};
use insum_kernel::BinOp;
use insum_tensor::{f16_round_slice, DType};

/// Largest leaf magnitude a row run accepts: 2^48 (see
/// [`crate::program::MAX_TREE_LEAVES`]).
const ROW_TERM_LIMIT: f64 = (1u64 << 48) as f64;

/// Reusable buffers for resolving a site's run: a separable site's term
/// sums, or a per-lane site's staged lanes.
#[derive(Default)]
pub(super) struct RowScratch {
    /// Per-row and per-column term sums (exact: small integers).
    row_sums: Vec<f64>,
    col_sums: Vec<f64>,
    /// The resolved row bases.
    rows: Vec<i64>,
    /// The row mask of a run decoded from a script, or the staged mask of
    /// a per-lane access.
    mask: Vec<f64>,
}

/// `sums[k] += term[k]`; true when every term element is an integer
/// below [`ROW_TERM_LIMIT`] in magnitude. Adding and subtracting
/// 1.5 · 2^52 rounds to the nearest integer (ulp 1 in that binade), so it
/// returns the element exactly when it already is one; NaN fails the
/// magnitude test. Branch-free so the loop vectorizes.
#[inline]
fn add_integral(sums: &mut [f64], term: &[f64]) -> bool {
    const ROUND: f64 = 1.5 * (1u64 << 52) as f64;
    let mut ok = true;
    for (s, &v) in sums.iter_mut().zip(term) {
        ok &= (v.abs() < ROW_TERM_LIMIT) & ((v + ROUND) - ROUND == v);
        *s += v;
    }
    ok
}

/// One access-site execution resolved to a run: lane `(i, j)` of the
/// `n × m` access addresses element `rows[i] + j`, and is active when row
/// `i` is on in `row_mask` and `j < cols` (a column mask is accepted only
/// as a prefix).
pub(super) struct RowRun<'a> {
    /// How the rows map onto the site's lanes (what a script records).
    form: Form,
    rows: &'a [i64],
    row_mask: Option<&'a [f64]>,
    /// Lanes per row.
    m: usize,
    /// Active lanes per row.
    cols: usize,
}

impl RowRun<'_> {
    #[inline]
    fn active(&self, i: usize) -> bool {
        self.cols != 0 && self.row_mask.is_none_or(|mk| mk[i] != 0.0)
    }

    /// `(row, first element)` of every row with active lanes, in order.
    fn active_rows(&self) -> impl Iterator<Item = (usize, i64)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.active(i))
            .map(|(i, &o)| (i, o))
    }
}

/// Resolve a separable site's terms into `scratch.rows`: integer row
/// bases with the scalar terms and the first column offset folded in.
/// `None` — the caller then materialises the offset block and takes the
/// generic path — unless every term is a small integer (so the sums are
/// exact and equal the kernel's f64 adds in any association), the column
/// terms sum to `c₀ + arange`, and a column mask is a prefix.
fn resolve_rows<'r>(
    rs: &RowSite,
    regs: &'r [Option<Block>],
    scratch: &'r mut RowScratch,
) -> Result<Option<RowRun<'r>>, GpuError> {
    let RowScratch {
        row_sums,
        col_sums,
        rows,
        ..
    } = scratch;
    row_sums.clear();
    row_sums.resize(rs.n, 0.0);
    col_sums.clear();
    col_sums.resize(rs.m, 0.0);
    let mut scalar = 0.0f64;
    let mut ok = true;
    for op in &rs.tree {
        let TreeOp::Leaf(r, axis) = *op else {
            continue;
        };
        let blk = Machine::reg(regs, r)?;
        let sums: &mut [f64] = match axis {
            TermAxis::Row => &mut row_sums[..],
            TermAxis::Col => &mut col_sums[..],
            TermAxis::Scalar => std::slice::from_mut(&mut scalar),
        };
        if blk.len() != sums.len() {
            return Ok(None);
        }
        ok &= match blk.as_slice() {
            Some(term) => add_integral(sums, term),
            // Scalars and strided views, one element at a time.
            None => {
                let (mut k, mut all) = (0, true);
                blk.walk(|v| {
                    all &= add_integral(&mut sums[k..=k], &[v]);
                    k += 1;
                });
                all
            }
        };
    }
    let c0 = col_sums.first().copied().unwrap_or(0.0);
    for (j, &c) in col_sums.iter().enumerate() {
        ok &= c == c0 + j as f64;
    }
    if !ok {
        return Ok(None);
    }
    // Exact: integer-valued sums of at most `MAX_TREE_LEAVES` terms.
    let fold = scalar + c0;
    rows.clear();
    rows.extend(row_sums.iter().map(|&r| (r + fold) as i64));
    let mut run = RowRun {
        form: Form::Rows,
        rows,
        row_mask: None,
        m: rs.m,
        cols: rs.m,
    };
    match rs.mask {
        SiteMask::None => {}
        SiteMask::Rows(r) => match Machine::reg(regs, r)?.as_slice() {
            Some(mk) if mk.len() == rs.n => run.row_mask = Some(mk),
            _ => return Ok(None),
        },
        SiteMask::Cols(r) => {
            let mk = Machine::reg(regs, r)?;
            if mk.len() != rs.m {
                return Ok(None);
            }
            let (mut on, mut prefix, mut k) = (0usize, true, 0usize);
            mk.walk(|v| {
                if v != 0.0 {
                    prefix &= on == k;
                    on += 1;
                }
                k += 1;
            });
            if !prefix {
                return Ok(None);
            }
            run.cols = on;
        }
    }
    Ok(Some(run))
}

/// Stage the active lanes of one per-lane access — offsets `off`, mask
/// `mask`, lanes of shape `lanes` — into `scratch` as the run a script
/// stores them as: [`Form::OneRow`] when they are a prefix of consecutive
/// elements (`p₀ + arange` under at most a bound mask, the 1-D value
/// loads of every generated kernel), [`Form::Lanes`], one single-element
/// row per lane, otherwise. Runs after the cost pass, which has
/// bounds-checked every active lane; each offset truncates as it
/// truncated there. With `check`, the second result says whether every
/// active offset is an integer (the instance-class trace's shift argument
/// needs it); it is `true` otherwise.
fn stage_lanes<'r>(
    off: &'r Block,
    mask: Option<&'r Block>,
    lanes: &[usize],
    check: bool,
    scratch: &'r mut RowScratch,
) -> (RowRun<'r>, bool) {
    // Flat blocks of the lanes' own shape (every 1-D access) are read in
    // place; strided and broadcast ones (and scalars) are walked.
    fn flat<'b>(b: &'b Block, lanes: &[usize]) -> Option<&'b [f64]> {
        (b.shape() == lanes).then(|| b.as_slice()).flatten()
    }
    let total: usize = lanes.iter().product();
    let RowScratch {
        rows, mask: staged, ..
    } = scratch;
    let ms: Option<&[f64]> = match mask.map(|m| (m, flat(m, lanes))) {
        None => None,
        Some((_, Some(ms))) => Some(ms),
        Some((m, None)) => {
            staged.clear();
            m.broadcast_to(lanes).walk(|mk| staged.push(mk));
            Some(&staged[..])
        }
    };
    let active = |k: usize| ms.is_none_or(|ms| ms[k] != 0.0);
    // Branch-free folds, so both vectorize: the active lanes are a prefix
    // when the first `live` lanes are all on.
    let live = ms.map_or(total, |ms| {
        ms.iter().fold(0, |n, &mk| n + usize::from(mk != 0.0))
    });
    let prefix =
        live > 0 && ms.is_none_or(|ms| ms[..live].iter().fold(true, |on, &mk| on & (mk != 0.0)));
    let offs = flat(off, lanes);
    rows.clear();
    // On flat offsets one row shows without converting a lane: from a
    // non-negative start, f64 steps of one truncate to steps of one.
    let flat_row = offs.filter(|o| prefix && o[0] >= 0.0 && consecutive(&o[..live]));
    match (flat_row, offs) {
        (Some(o), _) => rows.push(o[0] as i64),
        (None, Some(o)) => rows.extend(o.iter().map(|&o| o as i64)),
        (None, None) => off.broadcast_to(lanes).walk(|o| rows.push(o as i64)),
    }
    let integral = !check || {
        let (mut k, mut all) = (0, true);
        let mut exact = |o: f64| {
            all &= !active(k) || o.fract() == 0.0;
            k += 1;
        };
        match offs {
            Some(o) => o.iter().for_each(|&o| exact(o)),
            None => off.broadcast_to(lanes).walk(exact),
        }
        all
    };
    let one_row = flat_row.is_some()
        || (offs.is_none() && prefix && rows[..live].windows(2).all(|w| w[1] == w[0] + 1));
    let run = if one_row {
        rows.truncate(1);
        RowRun {
            form: Form::OneRow,
            rows,
            row_mask: None,
            m: total,
            cols: live,
        }
    } else {
        RowRun {
            form: Form::Lanes,
            rows,
            row_mask: ms,
            m: 1,
            cols: 1,
        }
    };
    (run, integral)
}

/// The shape of a row run decoded from a script into a [`RowScratch`].
#[derive(Clone, Copy)]
struct Scripted {
    form: Form,
    m: usize,
    cols: usize,
    masked: bool,
    /// The static shape of the site's lanes.
    lanes: Shape4,
}

impl Scripted {
    fn run<'r>(&self, scratch: &'r RowScratch) -> RowRun<'r> {
        RowRun {
            form: self.form,
            rows: &scratch.rows,
            row_mask: self.masked.then_some(&scratch.mask[..]),
            m: self.m,
            cols: self.cols,
        }
    }
}

/// Decode the row run a script entry stands for, for a site whose lanes
/// have static shape `lanes`: the recorded bases widened into `scratch`,
/// rows the entry does not list (or lists as [`INACTIVE`]) masked off.
fn decode(entry: Entry<'_>, lanes: Shape4, scratch: &mut RowScratch) -> Scripted {
    let (n, m) = match (entry.form, lanes.as_slice()) {
        (Form::Rows, &[n, m]) => (n, m),
        (Form::Rows, _) => unreachable!("row runs are recorded at rank-2 sites only"),
        (Form::Lanes, _) => (lanes.volume(), 1),
        (Form::OneRow, _) => (1, lanes.volume()),
    };
    let RowScratch { rows, mask, .. } = scratch;
    rows.clear();
    let mut masked = false;
    match entry.bases {
        Bases::Progression {
            base,
            stride,
            count,
        } => rows.extend((0..i64::from(count)).map(|i| i64::from(base) + i * i64::from(stride))),
        Bases::Listed(list) => {
            masked = list.contains(&INACTIVE);
            rows.extend(list.iter().map(|&b| i64::from(b)));
        }
    }
    masked |= rows.len() < n;
    if masked {
        mask.clear();
        mask.extend(rows.iter().map(|&b| f64::from(b != i64::from(INACTIVE))));
        mask.resize(n, 0.0);
    }
    rows.resize(n, 0);
    Scripted {
        form: entry.form,
        m,
        cols: entry.cols.map_or(m, |c| c as usize),
        masked,
        lanes,
    }
}

/// The warp-coalescing scan of a row run — what [`warp_scan`] computes
/// for the same lanes, without visiting them. Lanes chunk into warps of
/// 32 in row-major order; a warp covers pieces of one or more rows, each
/// piece a run of consecutive elements and therefore an arithmetic range
/// of sectors; the warp's L2 transactions are the distinct sectors in
/// the union of its pieces. Returns `(l2_sectors, first_oob_offset)`,
/// the offset being that of the first offending active lane in lane
/// order: a piece's first element when that is out of range, else `len`
/// (its elements ascend by one).
fn scan_rows(
    run: &RowRun<'_>,
    base: u64,
    esize: u64,
    len: usize,
    seen: &mut SectorSet,
) -> (u64, Option<i64>) {
    let (m, cols) = (run.m, run.cols);
    let total = run.rows.len() * m;
    // One piece of one row: bounds, first-touch marks, sector range.
    let mut piece = |first: i64, last: i64| -> Result<(u64, u64), i64> {
        // Unsigned compares cover both negative and too-large.
        if first as u64 >= len as u64 {
            return Err(first);
        }
        if last as u64 >= len as u64 {
            return Err(len as i64);
        }
        let lo = (base + first as u64 * esize) / SECTOR;
        let hi = (base + last as u64 * esize) / SECTOR;
        seen.insert_range(lo, hi);
        Ok((lo, hi))
    };
    let mut l2 = 0u64;
    if m.is_multiple_of(WARP) {
        // Every warp is one piece of one row.
        for (_, row) in run.active_rows() {
            for j0 in (0..cols).step_by(WARP) {
                let j1 = (j0 + WARP).min(cols);
                match piece(row + j0 as i64, row + j1 as i64 - 1) {
                    Ok((lo, hi)) => l2 += hi - lo + 1,
                    Err(offset) => return (l2, Some(offset)),
                }
            }
        }
        return (l2, None);
    }
    let mut pieces = [(0u64, 0u64); WARP];
    let mut lane = 0usize;
    while lane < total {
        let end = (lane + WARP).min(total);
        let mut k = 0usize;
        let mut pos = lane;
        while pos < end {
            let i = pos / m;
            let j0 = pos - i * m;
            let width = (m - j0).min(end - pos);
            pos += width;
            let j1 = (j0 + width).min(cols);
            if j0 >= j1 || !run.active(i) {
                continue;
            }
            match piece(run.rows[i] + j0 as i64, run.rows[i] + j1 as i64 - 1) {
                Ok(range) => pieces[k] = range,
                Err(offset) => return (l2, Some(offset)),
            }
            k += 1;
        }
        l2 += union_len(&mut pieces[..k]);
        lane = end;
    }
    (l2, None)
}

/// Number of distinct integers covered by a few inclusive ranges.
fn union_len(ranges: &mut [(u64, u64)]) -> u64 {
    if !ranges.is_sorted() {
        ranges.sort_unstable();
    }
    // With the ranges ordered by start, everything at or above the
    // current start that earlier ranges cover is `[start, next)`.
    let mut next = 0u64;
    let mut total = 0u64;
    for &(lo, hi) in ranges.iter() {
        let from = lo.max(next);
        if hi >= from {
            total += hi - from + 1;
            next = hi + 1;
        }
    }
    total
}

// The value bodies. Each is compiled once per rung of the ISA ladder
// (`isa.rs`) and entered at the host's widest; a lane's widening,
// narrowing, add and rounding are the same operations at every width.

/// A dense load: every lane of every row, widened to f64 and appended to
/// `out` — `m` consecutive elements from each row base, or one element
/// per row when `m == 1` (a gather).
struct WidenRows<'a> {
    data: &'a [f32],
    rows: &'a [i64],
    m: usize,
    out: &'a mut Vec<f64>,
}

impl Body for WidenRows<'_> {
    type Out = ();
    #[inline(always)]
    fn run(self) {
        let WidenRows { data, rows, m, out } = self;
        out.reserve(rows.len() * m);
        if m == 1 {
            out.extend(rows.iter().map(|&o| data[o as usize] as f64));
        } else {
            for &o in rows {
                let o = o as usize;
                out.extend(data[o..o + m].iter().map(|&x| x as f64));
            }
        }
    }
}

/// A masked load: the active lanes of `run` widened into `out` (its
/// `n × m` lanes, already holding `other`), or zeroed when `read` is
/// false (an Analytic float load).
struct WidenMasked<'a> {
    data: &'a [f32],
    run: &'a RowRun<'a>,
    out: &'a mut [f64],
    read: bool,
}

impl Body for WidenMasked<'_> {
    type Out = ();
    #[inline(always)]
    fn run(self) {
        let WidenMasked {
            data,
            run,
            out,
            read,
        } = self;
        let (m, cols) = (run.m, run.cols);
        for (i, o) in run.active_rows() {
            let lanes = &mut out[i * m..i * m + cols];
            if read {
                let o = o as usize;
                for (lane, &x) in lanes.iter_mut().zip(&data[o..o + cols]) {
                    *lane = x as f64;
                }
            } else {
                lanes.fill(0.0);
            }
        }
    }
}

/// A store or atomic add: lane `j` of row `i` of `lanes` (row-major,
/// `run.m` per row) stored to, or added to, element `rows[i] + j` of
/// `data` for every active lane, rows in order. An f16 parameter stores
/// or adds in f32 and then rounds the row through binary16 — per lane
/// exactly `f16_round(v)` / `f16_round(slot + v)`, because a row's
/// elements are distinct (no lane reads another lane's result) and a
/// row is rounded before the next one runs.
struct WriteRows<'a> {
    data: &'a mut [f32],
    run: &'a RowRun<'a>,
    lanes: &'a [f64],
    atomic: bool,
    round: bool,
}

impl Body for WriteRows<'_> {
    type Out = ();
    #[inline(always)]
    fn run(self) {
        let WriteRows {
            data,
            run,
            lanes,
            atomic,
            round,
        } = self;
        let (m, cols) = (run.m, run.cols);
        for (i, o) in run.active_rows() {
            let o = o as usize;
            let slots = &mut data[o..o + cols];
            let row = slots.iter_mut().zip(&lanes[i * m..i * m + cols]);
            // One loop per case so each vectorizes.
            if atomic {
                row.for_each(|(slot, &v)| *slot += v as f32);
            } else {
                row.for_each(|(slot, &v)| *slot = v as f32);
            }
            if round {
                f16_round_slice(slots);
            }
        }
    }
}

/// The staging of a written value that broadcasts: `val` broadcast to
/// `shape`, appended row-major to `out`.
struct Stage<'a> {
    val: &'a Block,
    shape: &'a [usize],
    out: &'a mut Vec<f64>,
}

impl Body for Stage<'_> {
    type Out = ();
    #[inline(always)]
    fn run(self) {
        self.val.extend_broadcast(self.shape, self.out);
    }
}

impl Machine<'_> {
    /// Run `body` over the row-run form of one execution of separable
    /// site `site`: resolve the address terms, do the cost pass (L2
    /// transactions, DRAM first touch, bounds) and [feed](Machine::feed)
    /// the rows on. `None` when the site declines on its data; nothing
    /// has been charged or touched then.
    fn with_row_run<T>(
        &mut self,
        rs: &RowSite,
        regs: &[Option<Block>],
        site: u32,
        args: &mut ArgsView<'_, '_>,
        body: impl FnOnce(&mut Self, &RowRun<'_>, &mut ArgsView<'_, '_>) -> T,
    ) -> Result<Option<T>, GpuError> {
        let mut scratch = std::mem::take(&mut self.row_scratch);
        let out = match resolve_rows(rs, regs, &mut scratch)? {
            None => None,
            Some(run) => {
                self.site_tally.row_run += 1;
                self.cost_rows(site, &run)?;
                Some(self.feed(site, &run, args, body))
            }
        };
        self.row_scratch = scratch;
        Ok(out)
    }

    /// Run `body` over one per-lane execution of `site` (offsets `off`,
    /// mask `mask`, lanes of shape `lanes`): the per-lane cost pass, then —
    /// when something consumes the addresses — [`stage_lanes`] and
    /// [feed](Machine::feed) the run on, exactly as a row run is fed.
    /// `None` when nothing does: an Analytic float access off the trace,
    /// which pays for its cost pass alone.
    pub(super) fn with_lanes<T>(
        &mut self,
        site: u32,
        off: &Block,
        mask: Option<&Block>,
        lanes: Shape4,
        args: &mut ArgsView<'_, '_>,
        body: impl FnOnce(&mut Self, &RowRun<'_>, &mut ArgsView<'_, '_>) -> T,
    ) -> Result<Option<T>, GpuError> {
        let info = &self.program.sites[site as usize];
        self.site_tally.generic += u64::from(lanes.as_slice().len() >= 2);
        self.record_access(info.param, off, mask, lanes.as_slice(), info.is_write)?;
        // A recording launch is an Execute launch: `moves_values` covers
        // the recorder.
        let traced = self.trace.active && info.traced;
        if !(traced || info.is_atomic || self.moves_values(site)) {
            return Ok(None);
        }
        let mut scratch = std::mem::take(&mut self.row_scratch);
        let (run, integral) = stage_lanes(off, mask, lanes.as_slice(), traced, &mut scratch);
        // Non-integral offsets: the affine-shift argument does not hold,
        // so the whole row falls back to full execution.
        self.trace.valid &= integral;
        let out = self.feed(site, &run, args, body);
        self.row_scratch = scratch;
        Ok(Some(out))
    }

    /// Hand one costed run of `site` to the instance-class trace, the
    /// script recorder and the atomic hit counts, then to its value body.
    fn feed<T>(
        &mut self,
        site: u32,
        run: &RowRun<'_>,
        args: &mut ArgsView<'_, '_>,
        body: impl FnOnce(&mut Self, &RowRun<'_>, &mut ArgsView<'_, '_>) -> T,
    ) -> T {
        if self.trace.active {
            self.trace_rows(site, run);
        }
        self.record_rows(site, run);
        self.count_atomics(run, site);
        body(self, run, args)
    }

    /// Decode the next script entry of `site` — the replay side of
    /// [`Machine::with_row_run`] and of the per-lane sites alike: no
    /// resolving, no cost pass; the entry was bounds-checked by the
    /// launch that recorded it. Returns the (taken) scratch holding the
    /// rows, to be put back once the value body has run.
    fn next_scripted(&mut self, site: u32) -> (RowScratch, Scripted) {
        let info = &self.program.sites[site as usize];
        let lanes = info
            .lanes
            .expect("a replayable program knows its value sites' shapes");
        let ScriptIo::Replay(cursor) = &mut self.script else {
            unreachable!("scripted sites run in replaying machines only");
        };
        let entry = cursor.next(info.level as usize);
        // Counted as the recording launch ran it.
        match entry.form {
            Form::Rows => self.site_tally.row_run += 1,
            _ => self.site_tally.generic += u64::from(lanes.as_slice().len() >= 2),
        }
        let mut scratch = std::mem::take(&mut self.row_scratch);
        let shape = decode(entry, lanes, &mut scratch);
        (scratch, shape)
    }

    /// A replayed load: [`Machine::load_values`] from the script.
    pub(super) fn load_scripted(
        &mut self,
        site: u32,
        other: f64,
        args: &ArgsView<'_, '_>,
    ) -> Block {
        let (scratch, shape) = self.next_scripted(site);
        let out = self.load_values(&shape.run(&scratch), site, other, args, shape.lanes);
        self.row_scratch = scratch;
        out
    }

    /// A replayed store or atomic add: [`Machine::write_values`] from the
    /// script.
    pub(super) fn write_scripted(&mut self, site: u32, val: &Block, args: &mut ArgsView<'_, '_>) {
        let (scratch, shape) = self.next_scripted(site);
        self.write_values(&shape.run(&scratch), site, val, args, shape.lanes);
        self.row_scratch = scratch;
    }

    /// Write a run of value site `site` into the script being recorded,
    /// if one is.
    fn record_rows(&mut self, site: u32, run: &RowRun<'_>) {
        let ScriptIo::Record(rec) = &mut self.script else {
            return;
        };
        let info = &self.program.sites[site as usize];
        if !info.value {
            return;
        }
        // In bounds: the cost pass has just checked.
        let cols = (run.cols != run.m).then_some(run.cols as u32);
        let level = info.level as usize;
        match run.row_mask {
            None if run.cols != 0 => rec.push(level, run.form, cols, run.rows, |_| true),
            _ => rec.push(level, run.form, cols, run.rows, |i| run.active(i)),
        }
    }

    /// The offset block a separable site's adds would have formed, in the
    /// kernel's own association: what the generic path runs on when the
    /// row-run form declines.
    pub(super) fn materialize(
        &mut self,
        rs: &RowSite,
        regs: &[Option<Block>],
    ) -> Result<Block, GpuError> {
        let mut stack: Vec<Block> = Vec::with_capacity(4);
        for op in &rs.tree {
            match *op {
                TreeOp::Leaf(r, _) => stack.push(Self::reg(regs, r)?.clone()),
                TreeOp::Add => {
                    let b = stack.pop().expect("postfix tree: add has two operands");
                    let a = stack.pop().expect("postfix tree: add has two operands");
                    let sum = match Block::try_scalar_binary(BinOp::Add, &a, &b) {
                        Some(sum) => sum,
                        None => Block::binary_with(BinOp::Add, &a, &b, self.alloc()),
                    };
                    self.recycle(a);
                    self.recycle(b);
                    stack.push(sum);
                }
            }
        }
        Ok(stack.pop().expect("postfix tree ends in its root"))
    }

    /// Cost pass of a row run: see [`scan_rows`].
    fn cost_rows(&mut self, site: u32, run: &RowRun<'_>) -> Result<(), GpuError> {
        let info = &self.program.sites[site as usize];
        let params = &self.program.params;
        let seen = if info.is_write {
            &mut self.dram_write_seen
        } else {
            &mut self.dram_read_seen
        };
        let (l2, oob) = scan_rows(
            run,
            params.bases[info.param],
            params.esizes[info.param],
            params.lens[info.param],
            seen,
        );
        if let Some(offset) = oob {
            return Err(GpuError::OffsetOutOfBounds {
                param: self.program.param_names[info.param].clone(),
                offset,
                len: params.lens[info.param],
            });
        }
        if info.is_write {
            self.inst.l2_write_sectors += l2;
        } else {
            self.inst.l2_read_sectors += l2;
        }
        Ok(())
    }

    /// Record one execution of a traced site for instance-class replay:
    /// the set of touched sectors (compressed to runs), the atomic hit
    /// counts and the active-offset bounds, from the sorted row bases.
    /// Equal bases collapse into one hit-count triple, and so do abutting
    /// ranges hit equally often; overlapping rows stay separate triples,
    /// which replay adds up to the same counts. Runs on row
    /// representatives only, and not once the row's trace is void.
    fn trace_rows(&mut self, site: u32, run: &RowRun<'_>) {
        let info = &self.program.sites[site as usize];
        if !info.traced || !self.trace.valid {
            return;
        }
        let base = self.program.params.bases[info.param];
        let esize = self.program.params.esizes[info.param];
        let len = self.program.params.lens[info.param];
        let mut starts = std::mem::take(&mut self.trace.scratch);
        starts.clear();
        starts.extend(run.active_rows().map(|(_, o)| o));
        let mut entry = TraceEntry {
            site,
            runs: Vec::new(),
            counts: Vec::new(),
            min_off: 0,
            max_off: -1,
        };
        starts.sort_unstable();
        if let Some(&max_start) = starts.last() {
            let span = run.cols as i64;
            entry.min_off = starts[0];
            entry.max_off = max_start + span - 1;
            if entry.min_off < 0 || entry.max_off as u64 >= len as u64 {
                // The representative itself is out of bounds; execution
                // will report the error — no replay for this row.
                self.trace.valid = false;
                self.trace.scratch = starts;
                return;
            }
            if info.is_atomic {
                let (mut k, cols) = (0, run.cols as u32);
                while k < starts.len() {
                    let start = starts[k];
                    let same = starts[k..].iter().take_while(|&&s| s == start).count();
                    match entry.counts.last_mut() {
                        Some((s, len, n)) if *s + i64::from(*len) == start && *n == same as u32 => {
                            *len += cols;
                        }
                        _ => entry.counts.push((start, cols, same as u32)),
                    }
                    k += same;
                }
            }
            let sector = |o: i64| (base + o as u64 * esize) / SECTOR;
            let (mut lo, mut hi) = (sector(starts[0]), sector(starts[0] + span - 1));
            for &s in &starts[1..] {
                if sector(s) > hi + 1 {
                    entry.runs.push((lo, hi));
                    lo = sector(s);
                }
                hi = sector(s + span - 1);
            }
            entry.runs.push((lo, hi));
        }
        self.trace.scratch = starts;
        self.trace.entries.push(entry);
    }

    /// A separable load as row runs: one widening copy per active row,
    /// `other` everywhere else. `None` when the site declines on its data.
    pub(super) fn load_rows(
        &mut self,
        rs: &RowSite,
        regs: &[Option<Block>],
        site: u32,
        other: f64,
        args: &mut ArgsView<'_, '_>,
    ) -> Result<Option<Block>, GpuError> {
        self.with_row_run(rs, regs, site, args, |machine, run, args| {
            machine.load_values(run, site, other, args, Shape4::from_slice(&[rs.n, rs.m]))
        })
    }

    /// Whether the value body of `site` moves tensor data: every access
    /// of an Execute launch, and the I32 loads an Analytic launch still
    /// needs for its addresses. Nothing else about an access reads the
    /// launch's [`Mode`].
    fn moves_values(&self, site: u32) -> bool {
        let info = &self.program.sites[site as usize];
        self.mode == Mode::Execute
            || (!info.is_write && self.program.params.dtypes[info.param] == DType::I32)
    }

    /// The value body of a load: the block of shape `shape` whose lanes,
    /// in row-major order, are the lanes of `run`.
    pub(super) fn load_values(
        &mut self,
        run: &RowRun<'_>,
        site: u32,
        other: f64,
        args: &ArgsView<'_, '_>,
        shape: Shape4,
    ) -> Block {
        let param = self.program.sites[site as usize].param;
        let (n, m, cols) = (run.rows.len(), run.m, run.cols);
        let read_values = self.moves_values(site);
        let dense = run.row_mask.is_none() && cols == m;
        if !read_values && dense {
            // Analytic float loads with every lane on are all zeros.
            return self.filled(shape, 0.0);
        }
        let mut buf = self.alloc();
        let out = buf.vec();
        out.clear();
        let data = args.data(param);
        if dense {
            // Every lane is read: write each once, no `other` fill first.
            let rows = run.rows;
            Isa::detect().run(WidenRows { data, rows, m, out });
            return self.packed(shape, buf);
        }
        out.resize(n * m, other);
        let read = read_values;
        Isa::detect().run(WidenMasked {
            data,
            run,
            out,
            read,
        });
        self.packed(shape, buf)
    }

    /// The value block of a store/atomic as the row-major lanes of
    /// `shape`: borrowed when it already is that, staged through a pool
    /// buffer (returned for recycling) when it broadcasts.
    fn value_lanes<'v>(
        &mut self,
        val: &'v Block,
        shape: &[usize],
        staged: &'v mut Option<PoolBuf>,
    ) -> &'v [f64] {
        if val.shape() == shape {
            if let Some(lanes) = val.as_slice() {
                return lanes;
            }
        }
        let buf = staged.insert(self.alloc());
        let lanes = buf.vec();
        lanes.clear();
        Isa::detect().run(Stage {
            val,
            shape,
            out: &mut *lanes,
        });
        lanes
    }

    /// A separable store or atomic add as row runs: one slice write (or
    /// one `slot += v` per lane, after one hit per element) per active
    /// row, rows in order. Lane order is row-major and a row's addresses
    /// are distinct, so every same-address atomic chain sums in the
    /// per-lane path's order. `None` when the site declines on its data.
    pub(super) fn write_rows(
        &mut self,
        rs: &RowSite,
        regs: &[Option<Block>],
        site: u32,
        val: &Block,
        args: &mut ArgsView<'_, '_>,
    ) -> Result<Option<()>, GpuError> {
        self.with_row_run(rs, regs, site, args, |machine, run, args| {
            machine.write_values(run, site, val, args, Shape4::from_slice(&[rs.n, rs.m]));
        })
    }

    /// The cost pass of an atomic run beyond its sectors: one hit per
    /// active lane's element (the launch's collision counts) and one
    /// atomic per active lane.
    fn count_atomics(&mut self, run: &RowRun<'_>, site: u32) {
        let info = &self.program.sites[site as usize];
        if !info.is_atomic {
            return;
        }
        let cols = run.cols;
        let hits = &mut self.hits[info.param];
        let counts = hits.counts(self.program.params.lens[info.param]);
        let (mut lo, mut hi, mut lanes) = (usize::MAX, 0usize, 0u64);
        for (_, o) in run.active_rows() {
            let o = o as usize;
            for c in &mut counts[o..o + cols] {
                *c += 1;
            }
            lo = lo.min(o);
            hi = hi.max(o + cols);
            lanes += cols as u64;
        }
        hits.touch(lo, hi);
        self.inst.atomics += lanes;
    }

    /// The value body of a store or atomic add: `val`, broadcast to
    /// `shape`, written (added) lane by lane to the lanes of `run`.
    pub(super) fn write_values(
        &mut self,
        run: &RowRun<'_>,
        site: u32,
        val: &Block,
        args: &mut ArgsView<'_, '_>,
        shape: Shape4,
    ) {
        let info = &self.program.sites[site as usize];
        let (param, atomic) = (info.param, info.is_atomic);
        let (m, cols) = (run.m, run.cols);
        if !self.moves_values(site) {
            return;
        }
        let round = self.program.params.dtypes[param] == DType::F16;
        let mut staged = None;
        let lanes = self.value_lanes(val, shape.as_slice(), &mut staged);
        match &mut self.sink {
            WriteSink::Direct => Isa::detect().run(WriteRows {
                data: args.data_mut(param),
                run,
                lanes,
                atomic,
                round,
            }),
            WriteSink::Log(log) => {
                for (i, o) in run.active_rows() {
                    let row = &lanes[i * m..i * m + cols];
                    log.extend(row.iter().enumerate().map(|(j, &v)| WriteOp {
                        off: (o as usize + j) as u32,
                        val: v as f32,
                        param: param as u16,
                        atomic,
                    }));
                }
            }
        }
        if let Some(buf) = staged {
            self.pool.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: the tests' own value stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Stored f32 values: the f16 grid, arbitrary bit patterns, and every
    /// payload a body must carry — ±0, ±Inf, quiet and signalling NaNs of
    /// both signs with payloads, the f16 subnormal and overflow edges.
    fn stored(n: usize, rng: &mut Rng) -> Vec<f32> {
        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffc0_1234),
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xff9a_bcde),
            2f32.powi(-14),
            -(2f32.powi(-24)),
            2f32.powi(-25),
            65504.0,
            -65519.0,
            65520.0,
        ];
        (0..n)
            .map(|_| {
                let b = rng.next();
                match b % 4 {
                    0 => specials[(b >> 8) as usize % specials.len()],
                    1 => f32::from_bits((b >> 16) as u32),
                    _ => ((b >> 20) % 4096) as f32 * 0.03125 - 64.0,
                }
            })
            .collect()
    }

    /// Written f64 lanes: f32 values, f64s that round on narrowing
    /// (overflowing, underflowing, inexact) and — with `nan` — f64 NaNs
    /// with payloads. Atomic cases pass no NaN: where a NaN slot meets a
    /// NaN lane, which payload survives is the compiler's choice, not the
    /// rung's.
    fn lanes(n: usize, rng: &mut Rng, nan: bool) -> Vec<f64> {
        let odd = [0.1, 1e300, -1e-300, 65519.99, -5e-324, 3.000_000_1];
        (0..n)
            .map(|_| {
                let b = rng.next();
                match b % 5 {
                    0 => odd[(b >> 8) as usize % odd.len()],
                    1 if nan => f64::from_bits(0x7ff8_0000_0000_0000 | (b >> 20) | (b & 1) << 63),
                    _ => stored(1, rng)[0] as f64,
                }
            })
            .filter(|v| nan || !v.is_nan())
            .chain(std::iter::repeat(0.5))
            .take(n)
            .collect()
    }

    /// One run of the differential: row bases, row mask, lanes per row
    /// and active lanes per row.
    struct Case {
        rows: Vec<i64>,
        mask: Option<Vec<f64>>,
        m: usize,
        cols: usize,
    }

    impl Case {
        fn run(&self) -> RowRun<'_> {
            RowRun {
                form: if self.m == 1 { Form::Lanes } else { Form::Rows },
                rows: &self.rows,
                row_mask: self.mask.as_deref(),
                m: self.m,
                cols: self.cols,
            }
        }
    }

    /// The runs of row length `m`: dense rows (two of them overlapping),
    /// a row mask, a column prefix, and a one-lane-per-row gather with
    /// repeated elements.
    fn cases(m: usize) -> [Case; 4] {
        let case = |rows: Vec<i64>, mask: Option<Vec<f64>>, m, cols| Case {
            rows,
            mask,
            m,
            cols,
        };
        [
            case(vec![5, 40, 5, 77], None, m, m),
            case(vec![5, 40, 5, 77], Some(vec![1.0, 0.0, 1.0, 1.0]), m, m),
            case(vec![9, 9, 60], None, m, m / 2),
            case((0..m as i64).map(|i| (i * 7) % 5 + 3).collect(), None, 1, 1),
        ]
    }

    /// `f` at every rung the host has equals `f` at `Portable`.
    fn at_every_rung<T: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn(Isa) -> T) {
        let want = f(Isa::Portable);
        for isa in Isa::ALL.into_iter().filter(|i| i.available()) {
            assert_eq!(f(isa), want, "{what} at {isa:?}");
        }
    }

    fn bits64(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every value body of an access — dense, gathered and masked
    /// widening, the four store / atomic × f32 / f16 arms, the staging
    /// of a broadcast value — at every rung the host has, bit for bit
    /// against `Portable`, over rows of 0..=33 lanes.
    #[test]
    fn value_bodies_are_the_portable_bits_at_every_rung() {
        let mut rng = Rng(0x5eed_1a7e);
        for m in 0..=33 {
            let data = stored(120, &mut rng);
            for case in cases(m) {
                let (run, lanes_per_row) = (case.run(), case.m);
                let n = case.rows.len();
                let what = format!(
                    "m {m}, rows {:?}, mask {:?}, cols {}",
                    case.rows, case.mask, case.cols
                );
                if case.mask.is_none() && case.cols == lanes_per_row {
                    at_every_rung(&format!("dense load, {what}"), |isa| {
                        let mut out = vec![-1.0];
                        isa.run(WidenRows {
                            data: &data,
                            rows: &case.rows,
                            m: lanes_per_row,
                            out: &mut out,
                        });
                        bits64(&out)
                    });
                }
                for read in [true, false] {
                    at_every_rung(&format!("masked load (read {read}), {what}"), |isa| {
                        let mut out =
                            vec![f64::from_bits(0x7ff8_0000_0000_0077); n * lanes_per_row];
                        isa.run(WidenMasked {
                            data: &data,
                            run: &run,
                            out: &mut out,
                            read,
                        });
                        bits64(&out)
                    });
                }
                for (atomic, round) in [(false, false), (false, true), (true, false), (true, true)]
                {
                    let values = lanes(n * lanes_per_row, &mut rng, !atomic);
                    at_every_rung(
                        &format!("write (atomic {atomic}, f16 {round}), {what}"),
                        |isa| {
                            let mut slots = data.clone();
                            isa.run(WriteRows {
                                data: &mut slots,
                                run: &run,
                                lanes: &values,
                                atomic,
                                round,
                            });
                            slots.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
                        },
                    );
                }
            }
            let shape = [3, m];
            let values: Vec<f64> = lanes(3 * m, &mut rng, true);
            for val in [
                Block::scalar(f64::from_bits(0xfff8_0000_0000_0009)),
                Block::from_vec(vec![m], values[..m].to_vec()),
                Block::from_vec(vec![3, 1], lanes(3, &mut rng, true)),
                Block::from_vec(vec![m, 3], values.clone()).trans(),
            ] {
                at_every_rung(&format!("staging {:?} to {shape:?}", val.shape()), |isa| {
                    let mut out = Vec::new();
                    isa.run(Stage {
                        val: &val,
                        shape: &shape,
                        out: &mut out,
                    });
                    bits64(&out)
                });
            }
        }
    }
}
