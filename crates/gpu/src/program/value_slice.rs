//! Analysis 7 (see the parent module docs): the value slice of a kernel
//! and whether a relaunch may replay it against recorded addresses.

use super::{Dataflow, ParamTable, SiteInfo};
use insum_kernel::{visit_instrs, Instr, Reg, Use};
use insum_tensor::DType;
use std::fmt;

/// Why a [`Program`](crate::Program) never replays an address script:
/// what makes its addresses, masks or trip counts more than a function
/// of the program and its I32 arguments, or keeps them out of a script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayDecline {
    /// A `LoopDyn`: trip counts are read from registers at run time.
    DynLoop,
    /// The kernel stores to an I32 parameter, so the metadata a script
    /// would be keyed on changes under it.
    WritesMetadata,
    /// A value loaded from a float parameter, or from a parameter the
    /// kernel writes, reaches an offset or a mask.
    FloatAddress,
    /// The static lane shape of a value-slice access is unknown.
    UnknownShape,
    /// A parameter too long for the script's 32-bit element addresses.
    WideAddress,
    /// The value tape cannot give some tile one static place: a view read
    /// after its source was rewritten, a `view` of a strided tile (which
    /// strides cannot express), or a register whose place differs between
    /// loop iterations.
    MovingTile,
}

impl fmt::Display for ReplayDecline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReplayDecline::DynLoop => "a dynamic loop bound",
            ReplayDecline::WritesMetadata => "a store to an I32 parameter",
            ReplayDecline::FloatAddress => "a float-derived offset or mask",
            ReplayDecline::UnknownShape => "an access of unknown static shape",
            ReplayDecline::WideAddress => "a parameter beyond 32-bit addresses",
            ReplayDecline::MovingTile => "a value tile without one static place",
        })
    }
}

/// The value slice, per register: `needed[r]` when some store or atomic
/// add's value is computed from `r` along value operands
/// ([`Use::Value`]). Offsets, masks and loop bounds are index operands:
/// the slice is cut there, which is what lets a script stand in for
/// everything behind them.
pub(super) struct ValueSlice {
    needed: Vec<bool>,
    /// The first kernel-level reason no launch may be replayed.
    decline: Option<ReplayDecline>,
}

impl ValueSlice {
    pub(super) fn analyze(flow: &Dataflow, dtypes: &[DType], written: &[bool]) -> ValueSlice {
        // Registers are not SSA: every writer of a needed register is in
        // the slice, and the marking iterates to a fixpoint because a
        // reader may stand before its operand's writer (loop-carried
        // accumulators). A store's or atomic's value is needed; a needed
        // register's writer needs its value operands.
        let needed = flow.solve(false, true, |e, needed| {
            if e.dst.is_none_or(|d| needed[d]) {
                for &(r, u) in e.operands.iter() {
                    needed[r] |= u == Use::Value;
                }
            }
        });
        ValueSlice {
            needed,
            decline: kernel_decline(flow, dtypes, written),
        }
    }

    /// Whether register `r` holds a value some store depends on.
    pub(super) fn needs(&self, r: Reg) -> bool {
        self.needed[r]
    }

    /// Whether a replayed launch executes `instr`: every store and atomic,
    /// every writer of a needed register, every loop around one of those.
    pub(super) fn contains(&self, instr: &Instr) -> bool {
        let mut hit = false;
        visit_instrs(std::slice::from_ref(instr), &mut |i| {
            hit |= i.dst().is_none_or(|d| self.needed[d]);
        });
        hit
    }

    /// Why the lowered program keeps no script, if it does not: the
    /// kernel-level reason, or what lowering found out about the sites
    /// and the launch shape.
    pub(super) fn decline(&self, sites: &[SiteInfo], params: &ParamTable) -> Option<ReplayDecline> {
        if self.decline.is_some() {
            return self.decline;
        }
        if sites.iter().any(|s| s.value && s.lanes.is_none()) {
            return Some(ReplayDecline::UnknownShape);
        }
        // `u32::MAX` marks an inactive row in a script.
        if params.lens.iter().any(|&len| len >= u32::MAX as usize) {
            return Some(ReplayDecline::WideAddress);
        }
        None
    }
}

/// What the kernel text alone rules out. `tainted[r]`: `r` may hold
/// something other than a function of the program and the I32 arguments
/// — a float parameter's element, an element of a parameter the kernel
/// writes, or anything computed from one.
fn kernel_decline(flow: &Dataflow, dtypes: &[DType], written: &[bool]) -> Option<ReplayDecline> {
    if flow
        .instrs
        .iter()
        .any(|e| matches!(e.instr, Instr::LoopDyn { .. }))
    {
        return Some(ReplayDecline::DynLoop);
    }
    if dtypes
        .iter()
        .zip(written)
        .any(|(&d, &w)| w && d == DType::I32)
    {
        return Some(ReplayDecline::WritesMetadata);
    }
    // A load taints its result by its parameter alone (its offset and
    // mask are index operands); everything else by its value operands.
    let tainted = flow.solve(false, true, |e, tainted| {
        if let Some(dst) = e.dst {
            let from_param = match e.instr {
                Instr::Load { param, .. } => dtypes[*param] != DType::I32 || written[*param],
                _ => false,
            };
            tainted[dst] |= from_param
                || e.operands
                    .iter()
                    .any(|&(r, u)| u == Use::Value && tainted[r]);
        }
    });
    // The index operands left are the accesses' offsets and masks (a
    // dynamic loop's bounds declined above).
    let float_address = flow.instrs.iter().any(|e| {
        e.operands
            .iter()
            .any(|&(r, u)| u == Use::Index && tainted[r])
    });
    float_address.then_some(ReplayDecline::FloatAddress)
}
