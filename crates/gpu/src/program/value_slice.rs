//! Analysis 7 (see the parent module docs): the value slice of a kernel,
//! the index slice the machine runs, and whether a relaunch may replay
//! the value slice against recorded addresses.

use super::{Dataflow, ParamTable};
use insum_kernel::{visit_instrs, Instr, Reg, Use};
use insum_tensor::DType;
use std::fmt;

/// Why a [`Program`](crate::Program) never replays an address script:
/// what makes its addresses, masks or trip counts more than a function
/// of the program and its I32 arguments, or keeps them out of a script.
/// The last three are also why a value tape cannot be lowered at all; an
/// Execute launch of such a program is a
/// [`GpuError::Kernel`](crate::GpuError).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayDecline {
    /// The kernel stores to an I32 parameter, so the metadata a script
    /// would be keyed on changes under it.
    WritesMetadata,
    /// A value loaded from a float parameter reaches an offset, a mask
    /// or a loop bound.
    FloatAddress,
    /// The static lane shape of a value-slice access is unknown.
    UnknownShape,
    /// A parameter too long for the script's 32-bit element addresses.
    WideAddress,
    /// The value tape cannot give some tile one static place: a view read
    /// after its source was rewritten, a register whose place differs
    /// between loop iterations, or one a dynamic loop's trip count
    /// decides.
    MovingTile,
}

impl fmt::Display for ReplayDecline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
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
/// everything behind them. `index[r]` when an index operand is computed
/// from `r`: the registers the machine computes. A register may be both.
pub(super) struct ValueSlice {
    needed: Vec<bool>,
    index: Vec<bool>,
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
        // An index operand is in the index slice, and so is everything
        // its writer reads.
        let index = flow.solve(false, true, |e, index| {
            let whole = e.dst.is_some_and(|d| index[d]);
            for &(r, u) in e.operands.iter() {
                index[r] |= whole || u == Use::Index;
            }
        });
        ValueSlice {
            needed,
            index,
            decline: kernel_decline(flow, dtypes, written),
        }
    }

    /// Whether the machine computes register `r` (it feeds an offset, a
    /// mask or a dynamic loop bound).
    pub(super) fn index(&self, r: Reg) -> bool {
        self.index[r]
    }

    /// Why the machine cannot run the kernel's index slice ahead of the
    /// tape: it reads a parameter the kernel writes, or computes a
    /// `tl.dot` (the machine computes none).
    pub(super) fn refusal(&self, flow: &Dataflow, written: &[bool]) -> Option<String> {
        flow.instrs.iter().find_map(|e| match *e.instr {
            Instr::Load { dst, param, .. } if self.index[dst] && written[param] => Some(format!(
                "the index slice loads parameter {param}, which the kernel writes"
            )),
            Instr::Dot { dst, .. } if self.index[dst] => {
                Some("a tl.dot result reaches an offset, a mask or a loop bound".to_string())
            }
            _ => None,
        })
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
    /// kernel-level reason, or what the launch shape rules out.
    pub(super) fn decline(&self, params: &ParamTable) -> Option<ReplayDecline> {
        if self.decline.is_some() {
            return self.decline;
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
    // The index operands: the accesses' offsets and masks, and the
    // dynamic loops' bounds.
    let float_address = flow.instrs.iter().any(|e| {
        e.operands
            .iter()
            .any(|&(r, u)| u == Use::Index && tainted[r])
    });
    float_address.then_some(ReplayDecline::FloatAddress)
}
