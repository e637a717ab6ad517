//! Row-run execution of separable access sites (`program.rs`,
//! analysis 6): a 2-D access whose offsets are `R[i] + C[j]` with `C` a
//! run of consecutive integers is `n` ranges of `m` consecutive elements,
//! and is costed and executed as such — no offset block, no per-lane
//! walk. Everything here must agree with the per-lane path in the parent
//! module lane for lane (`tests/row_sites.rs` holds it to that through
//! the seed interpreter); whatever the conditions in [`resolve_rows`] do
//! not cover goes back there.

use super::{
    consecutive, ArgsView, Machine, ScriptIo, SectorSet, TraceEntry, WriteOp, WriteSink, SECTOR,
    WARP,
};
use crate::block::{Block, PoolBuf, Shape4};
use crate::program::{RowSite, SiteMask, TermAxis, TreeOp};
use crate::script::{Bases, Entry, Form, INACTIVE};
use crate::{GpuError, Mode};
use insum_kernel::BinOp;
use insum_tensor::DType;

/// Largest leaf magnitude a row run accepts: 2^48 (see
/// [`crate::program::MAX_TREE_LEAVES`]).
const ROW_TERM_LIMIT: f64 = (1u64 << 48) as f64;

/// Reusable buffers for resolving a separable site's address terms.
#[derive(Default)]
pub(super) struct RowScratch {
    /// Per-row and per-column term sums (exact: small integers).
    row_sums: Vec<f64>,
    col_sums: Vec<f64>,
    /// The resolved row bases.
    rows: Vec<i64>,
    /// The row mask of a run decoded from a script.
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

/// One execution of a separable site resolved to row runs: lane `(i, j)`
/// of the `n × m` access addresses element `rows[i] + j`, and is active
/// when row `i` is on in `row_mask` and `j < cols` (a column mask is
/// accepted only as a prefix).
struct RowRun<'a> {
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

/// The shape of a row run decoded from a script into a [`RowScratch`].
#[derive(Clone, Copy)]
struct Scripted {
    m: usize,
    cols: usize,
    masked: bool,
    /// The static shape of the site's lanes.
    lanes: Shape4,
}

impl Scripted {
    fn run<'r>(&self, scratch: &'r RowScratch) -> RowRun<'r> {
        RowRun {
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

impl Machine<'_> {
    /// Run `body` over the row-run form of one execution of separable
    /// site `site`: resolve the address terms, record the instance-class
    /// trace, do the cost pass (L2 transactions, DRAM first touch, bounds)
    /// and hand the rows to the value pass. `None` when the site declines
    /// on its data; nothing has been charged or touched then.
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
                if self.trace.active {
                    self.trace_rows(site, &run);
                }
                self.cost_rows(site, &run)?;
                self.record_rows(site, &run);
                Some(body(self, &run, args))
            }
        };
        self.row_scratch = scratch;
        Ok(out)
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

    /// Write a row run of value site `site` into the script being
    /// recorded, if one is.
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
            None if run.cols != 0 => rec.push(level, Form::Rows, cols, run.rows, |_| true),
            _ => rec.push(level, Form::Rows, cols, run.rows, |i| run.active(i)),
        }
    }

    /// [`Machine::record_rows`] for the per-lane path: one base per lane
    /// in lane order — or a single row when the active lanes are a prefix
    /// of consecutive elements (`p₀ + arange` under a bound mask, the 1-D
    /// value loads of every generated kernel). Runs before the cost pass:
    /// an out-of-range offset records garbage and then fails the launch,
    /// which drops the recording.
    pub(super) fn record_lanes(
        &mut self,
        site: u32,
        off: &Block,
        mask: Option<&Block>,
        joint: &[usize],
    ) {
        let ScriptIo::Record(rec) = &mut self.script else {
            return;
        };
        let info = &self.program.sites[site as usize];
        if !info.value {
            return;
        }
        // Flat blocks of the lanes' own shape (every 1-D access) need no
        // broadcast walk.
        fn flat<'b>(b: &'b Block, joint: &[usize]) -> Option<&'b [f64]> {
            (b.shape() == joint).then(|| b.as_slice()).flatten()
        }
        // A masked-off lane is staged as −1 (so is an active one with a
        // negative offset: that launch fails and keeps no recording).
        let lane = |o: f64, mk: f64| if mk != 0.0 { o as i64 } else { -1 };
        let total: usize = joint.iter().product();
        let (offs, ms) = (flat(off, joint), mask.map(|m| (m, flat(m, joint))));
        let mut lanes = std::mem::take(&mut rec.lanes);
        lanes.clear();
        // One row — a prefix of active lanes over consecutive elements,
        // every 1-D tile load under its bound mask — shows on the flat
        // blocks themselves, without converting a lane.
        let row = match (offs, ms) {
            (Some(offs), None) => Some((offs, offs.len())),
            (Some(offs), Some((_, Some(ms)))) => {
                let live = ms.iter().take_while(|&&mk| mk != 0.0).count();
                ms[live..]
                    .iter()
                    .all(|&mk| mk == 0.0)
                    .then_some((offs, live))
            }
            _ => None,
        }
        .filter(|&(offs, live)| live > 0 && consecutive(&offs[..live]));
        let (live, one_row) = match (row, offs, ms) {
            (Some((offs, live)), _, _) => {
                lanes.push(lane(offs[0], 1.0));
                (live, true)
            }
            (None, Some(offs), None) => {
                lanes.extend(offs.iter().map(|&o| lane(o, 1.0)));
                (total, false)
            }
            (None, Some(offs), Some((_, Some(ms)))) => {
                lanes.extend(offs.iter().zip(ms).map(|(&o, &mk)| lane(o, mk)));
                (total, false)
            }
            // Strided or broadcast blocks (and scalars): walk them, then
            // apply the same test to the lanes.
            (None, _, ms) => {
                match ms {
                    None => off.broadcast_to(joint).walk(|o| lanes.push(lane(o, 1.0))),
                    Some((m, _)) => {
                        let (ob, mb) = (off.broadcast_to(joint), m.broadcast_to(joint));
                        Block::walk2(&ob, &mb, |o, mk| lanes.push(lane(o, mk)));
                    }
                }
                let live = lanes.iter().take_while(|&&o| o >= 0).count();
                let one_row = live > 0
                    && lanes[live..].iter().all(|&o| o < 0)
                    && lanes[..live].windows(2).all(|w| w[1] == w[0] + 1);
                (live, one_row)
            }
        };
        let level = info.level as usize;
        if one_row {
            let cols = (live != total).then_some(live as u32);
            rec.push(level, Form::OneRow, cols, &lanes[..1], |_| true);
        } else {
            rec.push(level, Form::Lanes, None, &lanes, |i| lanes[i] >= 0);
        }
        rec.lanes = lanes;
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

    /// [`Machine::trace_site`] for a row run: the same sector set, atomic
    /// hit counts and offset bounds, from the (sorted) row bases instead
    /// of the sorted lanes. Equal bases collapse into one hit-count
    /// triple; overlapping rows stay separate triples, which replay adds
    /// up to the same counts.
    fn trace_rows(&mut self, site: u32, run: &RowRun<'_>) {
        let info = &self.program.sites[site as usize];
        if !info.traced {
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
                let mut k = 0;
                while k < starts.len() {
                    let same = starts[k..].iter().take_while(|&&s| s == starts[k]).count();
                    entry.counts.push((starts[k], run.cols as u32, same as u32));
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

    /// The value body of a load: the block of shape `shape` whose lanes,
    /// in row-major order, are the lanes of `run`.
    fn load_values(
        &mut self,
        run: &RowRun<'_>,
        site: u32,
        other: f64,
        args: &ArgsView<'_, '_>,
        shape: Shape4,
    ) -> Block {
        let param = self.program.sites[site as usize].param;
        let (n, m) = (run.rows.len(), run.m);
        let read_values =
            self.mode == Mode::Execute || self.program.params.dtypes[param] == DType::I32;
        let mut buf = self.alloc();
        if !read_values && run.row_mask.is_none() && run.cols == m {
            // Analytic float loads with every lane on are all zeros.
            return Block::full_packed(shape, 0.0, buf);
        }
        let out = buf.vec();
        out.clear();
        let data = args.data(param);
        if run.row_mask.is_none() && run.cols == m {
            // Every lane is read: write each once, no `other` fill first.
            out.reserve(n * m);
            for &o in run.rows {
                let o = o as usize;
                out.extend(data[o..o + m].iter().map(|&x| x as f64));
            }
            return Block::from_packed(shape, buf);
        }
        out.resize(n * m, other);
        for ((i, &o), lanes) in run.rows.iter().enumerate().zip(out.chunks_exact_mut(m)) {
            if !run.active(i) {
                continue;
            }
            let lanes = &mut lanes[..run.cols];
            if read_values {
                let o = o as usize;
                for (lane, &x) in lanes.iter_mut().zip(&data[o..o + run.cols]) {
                    *lane = x as f64;
                }
            } else {
                lanes.fill(0.0);
            }
        }
        Block::from_packed(shape, buf)
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
        lanes.reserve(shape.iter().product());
        val.broadcast_to(shape).walk(|x| lanes.push(x));
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
            machine.count_atomics(run, site);
            machine.write_values(run, site, val, args, Shape4::from_slice(&[rs.n, rs.m]));
        })
    }

    /// The cost pass of an atomic row run beyond its sectors: one hit per
    /// active element (the launch's collision counts) and one atomic per
    /// lane.
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
    fn write_values(
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
        if self.mode != Mode::Execute {
            return;
        }
        let round = self.program.params.dtypes[param] == DType::F16;
        let mut staged = None;
        let lanes = self.value_lanes(val, shape.as_slice(), &mut staged);
        match &mut self.sink {
            WriteSink::Direct => {
                let data = args.data_mut(param);
                for (i, o) in run.active_rows() {
                    let o = o as usize;
                    let slots = data[o..o + cols]
                        .iter_mut()
                        .zip(&lanes[i * m..i * m + cols]);
                    // One loop per case so the unrounded ones vectorize.
                    match (atomic, round) {
                        (false, false) => slots.for_each(|(slot, &v)| *slot = v as f32),
                        (false, true) => {
                            slots.for_each(|(slot, &v)| *slot = insum_tensor::f16_round(v as f32));
                        }
                        (true, false) => slots.for_each(|(slot, &v)| *slot += v as f32),
                        (true, true) => slots.for_each(|(slot, &v)| {
                            *slot = insum_tensor::f16_round(*slot + v as f32);
                        }),
                    }
                }
            }
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
