//! Static block shapes: every instruction's result shape is a function of
//! the kernel text alone. Separable sites (analysis 6) and the lanes of
//! value sites (analysis 7) read them, and an instruction whose operand
//! shapes are known and break its rule makes the kernel illegal.

use super::{Dataflow, Edges};
use crate::block::{Shape4, MAX_RANK};
use insum_kernel::{Instr, KernelError, Reg};

/// The shape lattice: `Unset` (no writer reached the register yet) below
/// `Known`, below `Unknown` (writers disagree, or the shape depends on
/// such a register).
#[derive(Clone, Copy, PartialEq)]
enum S {
    Unset,
    Known(Shape4),
    Unknown,
}

impl S {
    fn join(self, v: Option<Shape4>) -> S {
        match (self, v) {
            (S::Unset, Some(s)) => S::Known(s),
            (S::Known(old), Some(s)) if old == s => S::Known(s),
            _ => S::Unknown,
        }
    }
}

fn get(st: &[S], r: Reg) -> Option<Shape4> {
    match st[r] {
        S::Known(s) => Some(s),
        _ => None,
    }
}

fn packed(shape: &[usize]) -> Option<Shape4> {
    (shape.len() <= MAX_RANK).then(|| Shape4::from_slice(shape))
}

/// Per register, its static shape: `None` for a register whose writers
/// disagree or whose shape depends on such a register. A register read
/// before any writer reached it makes its reader `Unknown` straight
/// away, which is merely conservative.
///
/// # Errors
///
/// A [`KernelError`] naming the first instruction (in program order)
/// whose operand shapes are known and break its rule — a rank above
/// four, a transpose or dot of a block that is not rank 2, disagreeing
/// dot dimensions, an axis out of range, a view that changes volume, a
/// broadcast, elementwise op, masked load, store or atomic add of
/// incompatible shapes.
/// Launching such a kernel would fail inside the interpreter.
pub(super) fn infer(flow: &Dataflow) -> Result<Vec<Option<Shape4>>, KernelError> {
    let st = flow.solve(S::Unset, S::Unknown, |e, st| {
        if let Some(dst) = e.dst {
            st[dst] = st[dst].join(shape_of(e.instr, st));
        }
    });
    if let Some(why) = flow.instrs.iter().find_map(|e| violation(e, &st)) {
        return Err(KernelError(why));
    }
    Ok((0..flow.num_regs).map(|r| get(&st, r)).collect())
}

/// The shape one write of `instr` gives its destination.
fn shape_of(instr: &Instr, st: &[S]) -> Option<Shape4> {
    match instr {
        Instr::ProgramId { .. }
        | Instr::Const { .. }
        | Instr::Loop { .. }
        | Instr::LoopDyn { .. } => packed(&[]),
        Instr::Arange { len, .. } => packed(&[*len]),
        Instr::Full { shape, .. } | Instr::Broadcast { shape, .. } | Instr::View { shape, .. } => {
            packed(shape)
        }
        Instr::Binary { a, b, .. } => get(st, *a)
            .zip(get(st, *b))
            .and_then(|(x, y)| Shape4::try_joint(x.as_slice(), y.as_slice())),
        // `get_mut` fails exactly when the axis is out of range.
        Instr::ExpandDims { src, axis, .. } => get(st, *src).and_then(|s| {
            let (d, a) = (s.as_slice(), *axis);
            let mut dims = [1; MAX_RANK + 1];
            dims.get_mut(a + 1..=d.len())?.copy_from_slice(&d[a..]);
            dims[..a].copy_from_slice(&d[..a]);
            packed(&dims[..=d.len()])
        }),
        Instr::Trans { src, .. } => get(st, *src).and_then(|s| match *s.as_slice() {
            [a, b] => packed(&[b, a]),
            _ => None,
        }),
        Instr::Sum { src, axis, .. } => get(st, *src).and_then(|s| {
            let (d, a) = (s.as_slice(), *axis);
            let mut dims = [0; MAX_RANK];
            dims.get_mut(a..d.len().checked_sub(1)?)?
                .copy_from_slice(&d[a + 1..]);
            dims[..a].copy_from_slice(&d[..a]);
            packed(&dims[..d.len() - 1])
        }),
        Instr::Dot { a, b, .. } => {
            get(st, *a)
                .zip(get(st, *b))
                .and_then(|(x, y)| match (x.as_slice(), y.as_slice()) {
                    (&[m, _], &[_, n]) => packed(&[m, n]),
                    _ => None,
                })
        }
        Instr::Load { offset, mask, .. } => get(st, *offset).and_then(|o| match mask {
            None => Some(o),
            Some(m) => Shape4::try_joint(o.as_slice(), get(st, *m)?.as_slice()),
        }),
        Instr::Store { .. } | Instr::AtomicAdd { .. } => None,
    }
}

/// Why `instr` cannot execute, when the converged shapes of all its
/// operands are known and prove it: its shape rule fails on them, or
/// they break a condition the rule does not need (a broadcast's source
/// must fit its target, a view keeps the volume, a dot's inner
/// dimensions agree).
fn violation(e: &Edges, st: &[S]) -> Option<String> {
    let instr = e.instr;
    let mut ops = [Shape4::from_slice(&[]); 3];
    let n = e.operands.len();
    for (op, &(r, _)) in ops.iter_mut().zip(e.operands.iter()) {
        *op = get(st, r)?;
    }
    let dims = |i: usize| ops[i].as_slice();
    // A write has no destination: its offsets, value and mask must
    // broadcast jointly. Otherwise a known destination means every
    // writer's rule held at the fixpoint.
    let legal = match e.dst {
        None => ops[..n]
            .iter()
            .skip(1)
            .try_fold(ops[0], |joint, op| {
                Shape4::try_joint(joint.as_slice(), op.as_slice())
            })
            .is_some(),
        Some(dst) => matches!(st[dst], S::Known(_)) || shape_of(instr, st).is_some(),
    } && match instr {
        Instr::Broadcast { shape, .. } => {
            dims(0).len() <= shape.len()
                && dims(0)
                    .iter()
                    .zip(&shape[shape.len() - dims(0).len()..])
                    .all(|(&d, &t)| d == t || d == 1)
        }
        Instr::View { shape, .. } => ops[0].volume() == shape.iter().product::<usize>(),
        Instr::Dot { .. } => dims(0)[1] == dims(1)[0],
        _ => true,
    };
    (!legal).then(|| {
        let shapes: Vec<&[usize]> = ops[..n].iter().map(Shape4::as_slice).collect();
        format!("ill-shaped instruction {instr:?} on operand shapes {shapes:?}")
    })
}
