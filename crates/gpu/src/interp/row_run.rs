//! Row-run execution of separable access sites (`program.rs`,
//! analysis 6): a 2-D access whose offsets are `R[i] + C[j]` with `C` a
//! run of consecutive integers is `n` ranges of `m` consecutive elements,
//! and is costed and executed as such — no offset block, no per-lane
//! walk. Everything here must agree with the per-lane path in the parent
//! module lane for lane (`tests/row_sites.rs` holds it to that through
//! the seed interpreter); whatever the conditions in [`resolve_rows`] do
//! not cover goes back there.

use super::{ArgsView, Machine, SectorSet, TraceEntry, WriteOp, WriteSink, SECTOR, WARP};
use crate::block::{Block, PoolBuf, Shape4};
use crate::program::{RowSite, SiteMask, TermAxis, TreeOp};
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
        body: impl FnOnce(&mut Self, &RowRun<'_>) -> T,
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
                Some(body(self, &run))
            }
        };
        self.row_scratch = scratch;
        Ok(out)
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
        args: &ArgsView<'_, '_>,
    ) -> Result<Option<Block>, GpuError> {
        self.with_row_run(rs, regs, site, |machine, run| {
            machine.load_values(run, site, other, args)
        })
    }

    fn load_values(
        &mut self,
        run: &RowRun<'_>,
        site: u32,
        other: f64,
        args: &ArgsView<'_, '_>,
    ) -> Block {
        let param = self.program.sites[site as usize].param;
        let (n, m) = (run.rows.len(), run.m);
        let shape = Shape4::from_slice(&[n, m]);
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

    /// The value block of a separable store/atomic as `n · m` row-major
    /// lanes: borrowed when it already is that, staged through a pool
    /// buffer (returned for recycling) when it broadcasts.
    fn value_lanes<'v>(
        &mut self,
        val: &'v Block,
        n: usize,
        m: usize,
        staged: &'v mut Option<PoolBuf>,
    ) -> &'v [f64] {
        if val.shape() == [n, m] {
            if let Some(lanes) = val.as_slice() {
                return lanes;
            }
        }
        let buf = staged.insert(self.alloc());
        let lanes = buf.vec();
        lanes.clear();
        lanes.reserve(n * m);
        val.broadcast_to(&[n, m]).walk(|x| lanes.push(x));
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
        self.with_row_run(rs, regs, site, |machine, run| {
            machine.write_values(run, site, val, args);
        })
    }

    fn write_values(
        &mut self,
        run: &RowRun<'_>,
        site: u32,
        val: &Block,
        args: &mut ArgsView<'_, '_>,
    ) {
        let info = &self.program.sites[site as usize];
        let (param, atomic) = (info.param, info.is_atomic);
        let (m, cols) = (run.m, run.cols);
        if atomic {
            let hits = &mut self.hits[param];
            let counts = hits.counts(self.program.params.lens[param]);
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
        if self.mode != Mode::Execute {
            return;
        }
        let round = self.program.params.dtypes[param] == DType::F16;
        let mut staged = None;
        let lanes = self.value_lanes(val, run.rows.len(), m, &mut staged);
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
