//! Analysis 4 (see the parent module docs): affine address streams, the
//! static half of analytic instance classes.

use super::Dataflow;
use crate::block::apply_binop;
use insum_kernel::{BinOp, Instr, Reg};
use insum_tensor::DType;

/// Abstract value of a register along grid axis 0, under *analytic*
/// execution semantics (float loads produce zeros). `int` tracks
/// provably-integer values: affine shifts are exact in `f64` only along
/// all-integer chains, so `Aff` is produced and propagated only through
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum AV {
    /// No writer has reached the register yet. Read as `NX { int: true }`.
    Unset,
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
    pub(super) fn invariant(self) -> bool {
        matches!(self, AV::Known { .. } | AV::NX { .. })
    }

    fn integral(self) -> bool {
        match self {
            AV::Known { value } => value.fract() == 0.0,
            AV::NX { int } => int,
            AV::Aff(_) => true,
            AV::Unset | AV::Bad => false,
        }
    }

    fn join(self, other: AV) -> AV {
        if self == other || self == AV::Unset {
            return other;
        }
        match (self, other) {
            (AV::Known { .. } | AV::NX { .. }, AV::Known { .. } | AV::NX { .. }) => AV::NX {
                int: self.integral() && other.integral(),
            },
            _ => AV::Bad,
        }
    }
}

pub(super) struct Avals {
    reg: Vec<AV>,
    /// No dynamic loop has axis-0-varying trip counts.
    pub(super) loops_ok: bool,
}

impl Avals {
    /// Loop-carried values that change across iterations widen until
    /// stable (or to `Bad`). Should the fixpoint not converge, every
    /// register is `Bad` — never an under-approximation, since a stale
    /// "invariant" classification would silently break the bit-identity
    /// of instance-class replay — and so no site and no dynamic loop
    /// admits a class.
    pub(super) fn analyze(flow: &Dataflow, dtypes: &[DType], written: &[bool]) -> Avals {
        let reg = flow.solve(AV::Unset, AV::Bad, |e, reg| {
            if let Some(dst) = e.dst {
                let v = transfer(e.instr, dtypes, written, reg);
                reg[dst] = reg[dst].join(v);
            }
        });
        // Axis-0-varying trip counts: per-instance costs genuinely
        // differ, no class dedup.
        let loops_ok = flow.instrs.iter().all(|e| match e.instr {
            Instr::LoopDyn { start, end, .. } => {
                read(&reg, *start).invariant() && read(&reg, *end).invariant()
            }
            _ => true,
        });
        Avals { reg, loops_ok }
    }

    pub(super) fn get(&self, r: Reg) -> AV {
        read(&self.reg, r)
    }
}

fn read(reg: &[AV], r: Reg) -> AV {
    match reg[r] {
        AV::Unset => AV::NX { int: true },
        v => v,
    }
}

/// The value one write of `instr` gives its destination.
fn transfer(instr: &Instr, dtypes: &[DType], written: &[bool], reg: &[AV]) -> AV {
    match instr {
        Instr::ProgramId { axis: 0, .. } => AV::Aff(1.0),
        Instr::Const { value, .. } => AV::Known { value: *value },
        Instr::Full { value, .. } => AV::NX {
            int: value.fract() == 0.0,
        },
        Instr::Binary { op, a, b, .. } => binary_aval(*op, read(reg, *a), read(reg, *b)),
        Instr::ExpandDims { src, .. }
        | Instr::Broadcast { src, .. }
        | Instr::View { src, .. }
        | Instr::Trans { src, .. } => read(reg, *src),
        // Sums of invariant blocks are invariant; affine blocks would
        // need the (runtime) axis length as a coefficient.
        Instr::Sum { src, .. } => match read(reg, *src) {
            v @ (AV::Known { .. } | AV::NX { .. }) => AV::NX { int: v.integral() },
            _ => AV::Bad,
        },
        Instr::Load {
            param,
            offset,
            mask,
            other,
            ..
        } => {
            let mask_av = mask.map_or(AV::NX { int: true }, |m| read(reg, m));
            if written[*param] {
                // Conservative: data under a written parameter may
                // change between launches of the same program.
                AV::Bad
            } else if dtypes[*param] == DType::I32 {
                // Metadata loads read real values in analytic mode.
                if read(reg, *offset).invariant() && mask_av.invariant() {
                    AV::NX { int: true }
                } else {
                    AV::Bad
                }
            } else if mask_av.invariant() {
                // Float loads are zeros/`other` in analytic mode: the
                // value depends only on the mask.
                AV::NX {
                    int: other.fract() == 0.0,
                }
            } else {
                AV::Bad
            }
        }
        // Other program ids, `arange` lanes, loop counters; analytic
        // `tl.dot` yields a zeros block whatever the inputs (only the
        // invariant shapes matter).
        _ => AV::NX { int: true },
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
