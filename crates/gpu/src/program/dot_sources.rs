//! Analysis 5 (see the parent module docs): dot-operand provenance, the
//! static half of exact-product `tl.dot` eligibility.

use super::Dataflow;
use crate::exact_dot::{all_finite, f32_exact};
use insum_kernel::{Instr, Reg};
use insum_tensor::Tensor;

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
#[derive(Debug)]
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

    /// Registers are not SSA (accumulators, loop-carried values): a
    /// register's mask is the union over all its writers.
    pub(super) fn analyze(flow: &Dataflow, written: &[bool]) -> DotSources {
        let reg = flow.solve(0u64, u64::MAX, |e, reg| {
            if let Some(dst) = e.dst {
                reg[dst] |= source(e.instr, written, reg);
            }
        });
        let mut scanned_params = 0u64;
        for e in &flow.instrs {
            if let Instr::Dot { a, b, .. } = e.instr {
                let mask = reg[*a] | reg[*b];
                if mask & DotSources::INEXACT == 0 {
                    scanned_params |= mask;
                }
            }
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

/// The mask one write of `instr` contributes to its destination.
fn source(instr: &Instr, written: &[bool], reg: &[u64]) -> u64 {
    let exact_const = |v: f64| {
        if f32_exact(v) {
            0
        } else {
            DotSources::INEXACT
        }
    };
    match instr {
        Instr::Const { value, .. } | Instr::Full { value, .. } => exact_const(*value),
        // A parameter the kernel also writes holds whatever the kernel
        // computed, not what the launch-time scan saw; masked-off lanes
        // take `other`.
        Instr::Load { param, other, .. } => {
            if written[*param] || *param >= 63 {
                DotSources::INEXACT
            } else {
                (1 << *param) | exact_const(*other)
            }
        }
        Instr::ExpandDims { src, .. }
        | Instr::Broadcast { src, .. }
        | Instr::View { src, .. }
        | Instr::Trans { src, .. } => reg[*src],
        // Arithmetic results are arbitrary f64s. (Program ids, `arange`
        // lanes and loop counters are small integers, but no kernel feeds
        // them to a dot; poisoning them keeps the rule one line long.)
        _ => DotSources::INEXACT,
    }
}
