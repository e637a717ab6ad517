//! Analysis 7 (see the parent module docs): the value slice of a kernel
//! and whether a relaunch may replay it against recorded addresses.

use super::{for_each_write, visit_tree, ParamTable, SiteInfo};
use insum_kernel::{Instr, Kernel, Reg};
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
}

impl fmt::Display for ReplayDecline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReplayDecline::DynLoop => "a dynamic loop bound",
            ReplayDecline::WritesMetadata => "a store to an I32 parameter",
            ReplayDecline::FloatAddress => "a float-derived offset or mask",
            ReplayDecline::UnknownShape => "an access of unknown static shape",
            ReplayDecline::WideAddress => "a parameter beyond 32-bit addresses",
        })
    }
}

/// The value slice, per register: `needed[r]` when some store or atomic
/// add's value is computed from `r` along operand edges. A load's offset
/// and mask are *not* operand edges — the slice is cut there, which is
/// what lets a script stand in for everything behind them.
pub(super) struct ValueSlice {
    needed: Vec<bool>,
    /// The first kernel-level reason no launch may be replayed.
    decline: Option<ReplayDecline>,
}

impl ValueSlice {
    pub(super) fn analyze(kernel: &Kernel, dtypes: &[DType], written: &[bool]) -> ValueSlice {
        // Registers are not SSA: every writer of a needed register is in
        // the slice, and the marking iterates to a fixpoint because a
        // reader may stand before its operand's writer (loop-carried
        // accumulators).
        let mut needed = vec![false; kernel.num_regs];
        loop {
            let before = needed.clone();
            mark_needed(&kernel.body, &mut needed);
            if needed == before {
                break;
            }
        }
        ValueSlice {
            needed,
            decline: kernel_decline(kernel, dtypes, written),
        }
    }

    /// Whether register `r` holds a value some store depends on.
    pub(super) fn needs(&self, r: Reg) -> bool {
        self.needed[r]
    }

    /// Whether a replayed launch executes `instr`: every store and atomic,
    /// every writer of a needed register, every loop around one of those.
    pub(super) fn contains(&self, instr: &Instr) -> bool {
        match instr {
            Instr::Store { .. } | Instr::AtomicAdd { .. } => true,
            Instr::Loop { var, body, .. } | Instr::LoopDyn { var, body, .. } => {
                self.needed[*var] || body.iter().any(|i| self.contains(i))
            }
            other => {
                let mut hit = false;
                for_each_write(other, &mut |r| hit |= self.needed[r]);
                hit
            }
        }
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

fn mark_needed(body: &[Instr], needed: &mut [bool]) {
    for instr in body {
        match instr {
            Instr::Store { value, .. } | Instr::AtomicAdd { value, .. } => needed[*value] = true,
            Instr::Binary { dst, a, b, .. } | Instr::Dot { dst, a, b } if needed[*dst] => {
                needed[*a] = true;
                needed[*b] = true;
            }
            Instr::ExpandDims { dst, src, .. }
            | Instr::Broadcast { dst, src, .. }
            | Instr::View { dst, src, .. }
            | Instr::Trans { dst, src }
            | Instr::Sum { dst, src, .. }
                if needed[*dst] =>
            {
                needed[*src] = true;
            }
            Instr::Loop { body, .. } | Instr::LoopDyn { body, .. } => mark_needed(body, needed),
            // A needed load is a leaf: its offset and mask stay outside.
            _ => {}
        }
    }
}

/// What the kernel text alone rules out. `tainted[r]`: `r` may hold
/// something other than a function of the program and the I32 arguments
/// — a float parameter's element, an element of a parameter the kernel
/// writes, or anything computed from one.
fn kernel_decline(kernel: &Kernel, dtypes: &[DType], written: &[bool]) -> Option<ReplayDecline> {
    let mut dyn_loop = false;
    for instr in &kernel.body {
        visit_tree(instr, &mut |i| {
            dyn_loop |= matches!(i, Instr::LoopDyn { .. })
        });
    }
    if dyn_loop {
        return Some(ReplayDecline::DynLoop);
    }
    if dtypes
        .iter()
        .zip(written)
        .any(|(&d, &w)| w && d == DType::I32)
    {
        return Some(ReplayDecline::WritesMetadata);
    }
    let mut tainted = vec![false; kernel.num_regs];
    loop {
        let before = tainted.clone();
        taint_pass(&kernel.body, dtypes, written, &mut tainted);
        if tainted == before {
            break;
        }
    }
    let mut float_address = false;
    for instr in &kernel.body {
        visit_tree(instr, &mut |i| {
            if let Instr::Load { offset, mask, .. }
            | Instr::Store { offset, mask, .. }
            | Instr::AtomicAdd { offset, mask, .. } = i
            {
                float_address |= tainted[*offset] || mask.is_some_and(|m| tainted[m]);
            }
        });
    }
    float_address.then_some(ReplayDecline::FloatAddress)
}

fn taint_pass(body: &[Instr], dtypes: &[DType], written: &[bool], tainted: &mut [bool]) {
    for instr in body {
        match instr {
            Instr::Load { dst, param, .. } => {
                tainted[*dst] |= dtypes[*param] != DType::I32 || written[*param];
            }
            Instr::Binary { dst, a, b, .. } | Instr::Dot { dst, a, b } => {
                tainted[*dst] |= tainted[*a] || tainted[*b];
            }
            Instr::ExpandDims { dst, src, .. }
            | Instr::Broadcast { dst, src, .. }
            | Instr::View { dst, src, .. }
            | Instr::Trans { dst, src }
            | Instr::Sum { dst, src, .. } => tainted[*dst] |= tainted[*src],
            Instr::Loop { body, .. } | Instr::LoopDyn { body, .. } => {
                taint_pass(body, dtypes, written, tainted);
            }
            Instr::ProgramId { .. }
            | Instr::Const { .. }
            | Instr::Arange { .. }
            | Instr::Full { .. }
            | Instr::Store { .. }
            | Instr::AtomicAdd { .. } => {}
        }
    }
}
