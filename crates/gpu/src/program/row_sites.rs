//! Analysis 6 (see the parent module docs): separable access sites,
//! recognised while lowering walks the kernel.

use super::Dataflow;
use crate::block::Shape4;
use insum_kernel::{visit_instrs, BinOp, Instr, Reg};

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
#[derive(Debug)]
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

    /// `(recognised, total)` access sites.
    pub(super) fn counts(&self) -> (usize, usize) {
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

/// The recogniser. Lowering walks the kernel in program order, numbers
/// each body it enters ([`SiteScan::body`]) and shows the scan every
/// instruction before lowering it ([`SiteScan::note`]): a single-writer
/// add is remembered, an access is recognised against the adds already
/// seen in its own body — the only ones it may fold — so sites are
/// numbered as lowering numbers them.
pub(super) struct SiteScan<'a> {
    shapes: &'a [Option<Shape4>],
    /// Per register, how many operand edges read it.
    uses: Vec<u32>,
    /// Per register, how many instructions write it.
    writers: Vec<u32>,
    add_def: Vec<Option<AddDef>>,
    next_body: u32,
    out: RowSites,
}

impl<'a> SiteScan<'a> {
    pub(super) fn new(flow: &Dataflow, shapes: &'a [Option<Shape4>]) -> SiteScan<'a> {
        let n = flow.num_regs;
        let mut uses = vec![0u32; n];
        let mut writers = vec![0u32; n];
        for e in &flow.instrs {
            if let Some(d) = e.dst {
                writers[d] += 1;
            }
            for &(r, _) in e.operands.iter() {
                uses[r] += 1;
            }
        }
        SiteScan {
            shapes,
            uses,
            writers,
            add_def: vec![None; n],
            next_body: 0,
            out: RowSites {
                site: Vec::new(),
                elided: vec![None; n],
            },
        }
    }

    /// The id of the next body lowering enters.
    pub(super) fn body(&mut self) -> u32 {
        self.next_body += 1;
        self.next_body - 1
    }

    /// Show the scan `body[idx]`, in body `id`. An access gets the next
    /// site entry, recognised or not.
    pub(super) fn note(&mut self, body: &[Instr], id: u32, idx: usize) {
        match &body[idx] {
            Instr::Binary {
                dst,
                op: BinOp::Add,
                a,
                b,
            } if self.writers[*dst] == 1 => {
                self.add_def[*dst] = Some(AddDef {
                    body: id,
                    idx,
                    a: *a,
                    b: *b,
                });
            }
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
            _ => {}
        }
    }

    /// The leaves of site `site`'s offset tree, if it was recognised: the
    /// site reads them when it executes.
    pub(super) fn leaves(&self, site: u32) -> impl Iterator<Item = Reg> + '_ {
        let tree = self.out.site(site).map_or(&[][..], |rs| &rs.tree);
        tree.iter().filter_map(|op| match *op {
            TreeOp::Leaf(r, _) => Some(r),
            TreeOp::Add => None,
        })
    }

    pub(super) fn finish(self) -> RowSites {
        self.out
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
            visit_instrs(&body[read_at + 1..idx], &mut |i| {
                clobbered |= i.dst() == Some(leaf)
            });
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
