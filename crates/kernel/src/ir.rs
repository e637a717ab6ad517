//! Kernel IR definitions.

use std::error::Error;
use std::fmt;

/// A virtual register holding a block value (a small n-d array; scalars
/// are rank-0 blocks).
pub type Reg = usize;

/// Elementwise binary operations on blocks, with NumPy-style broadcasting.
///
/// Comparison and logic ops produce mask blocks of 0.0 / 1.0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// Integer floor division `a // b`.
    FloorDiv,
    /// Integer remainder `a % b`.
    Mod,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// `a < b` → mask
    Lt,
    /// `a <= b` → mask
    Le,
    /// `a == b` → mask
    Eq,
    /// `a >= b` → mask
    Ge,
    /// logical and of masks
    And,
}

impl BinOp {
    /// The Triton-ish operator token used by the printer.
    pub fn token(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::FloorDiv => "//",
            BinOp::Mod => "%",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Eq => "==",
            BinOp::Ge => ">=",
            BinOp::And => "&",
        }
    }
}

/// One kernel instruction.
///
/// Register blocks follow value semantics: an instruction overwrites its
/// `dst` register. Loop bodies execute once per induction value with the
/// loop variable materialized as a scalar block.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = tl.program_id(axis)` — this instance's grid coordinate.
    ProgramId {
        /// Destination register (scalar).
        dst: Reg,
        /// Grid axis, 0..3.
        axis: usize,
    },
    /// `dst = value` — scalar constant.
    Const {
        /// Destination register (scalar).
        dst: Reg,
        /// The value.
        value: f64,
    },
    /// `dst = tl.arange(0, len)` — 1-D iota block.
    Arange {
        /// Destination register.
        dst: Reg,
        /// Number of lanes.
        len: usize,
    },
    /// `dst = tl.full(shape, value)`.
    Full {
        /// Destination register.
        dst: Reg,
        /// Block shape.
        shape: Vec<usize>,
        /// Fill value.
        value: f64,
    },
    /// `dst = a <op> b` with broadcasting.
    Binary {
        /// Destination register.
        dst: Reg,
        /// The operation.
        op: BinOp,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = src[..., None, ...]` — insert a size-1 axis (lazy-broadcast
    /// building block; free on the device).
    ExpandDims {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
        /// Position of the new axis.
        axis: usize,
    },
    /// `dst = tl.broadcast_to(src, shape)` — materialize a broadcast
    /// (eager broadcasting; charged as register/shared-memory traffic).
    Broadcast {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
        /// Target shape.
        shape: Vec<usize>,
    },
    /// `dst = tl.view(src, shape)` — reshape through shared memory
    /// (charged by the cost model; the eager-broadcasting tax of §5.2.3).
    View {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
        /// New shape (same volume).
        shape: Vec<usize>,
    },
    /// `dst = tl.trans(src)` — 2-D transpose through shared memory.
    Trans {
        /// Destination register.
        dst: Reg,
        /// Source register (rank 2).
        src: Reg,
    },
    /// `dst = tl.load(params[param] + offset, mask=mask, other=other)`.
    ///
    /// `offset` is a block of *element* offsets into the parameter tensor;
    /// masked-off lanes yield `other` and generate no memory traffic.
    Load {
        /// Destination register.
        dst: Reg,
        /// Parameter index.
        param: usize,
        /// Element-offset block.
        offset: Reg,
        /// Optional mask block (same shape as `offset` after broadcast).
        mask: Option<Reg>,
        /// Value substituted for masked lanes.
        other: f64,
    },
    /// `tl.store(params[param] + offset, value, mask=mask)`.
    Store {
        /// Parameter index.
        param: usize,
        /// Element-offset block.
        offset: Reg,
        /// Value block.
        value: Reg,
        /// Optional mask block.
        mask: Option<Reg>,
    },
    /// `tl.atomic_add(params[param] + offset, value, mask=mask)` — the
    /// scatter primitive; colliding lanes serialize on the device.
    AtomicAdd {
        /// Parameter index.
        param: usize,
        /// Element-offset block.
        offset: Reg,
        /// Value block.
        value: Reg,
        /// Optional mask block.
        mask: Option<Reg>,
    },
    /// `dst = tl.dot(a, b)` — Tensor-Core matrix multiply of `[m, k] x
    /// [k, n] -> [m, n]` blocks.
    Dot {
        /// Destination register.
        dst: Reg,
        /// Left operand (rank 2).
        a: Reg,
        /// Right operand (rank 2).
        b: Reg,
    },
    /// `dst = tl.sum(src, axis)` — in-block reduction (rank decreases).
    Sum {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
        /// Axis reduced over.
        axis: usize,
    },
    /// `for var in range(start, end, step): body` — sequential loop.
    Loop {
        /// Register receiving the induction value each iteration.
        var: Reg,
        /// First induction value.
        start: i64,
        /// Exclusive upper bound.
        end: i64,
        /// Step (must be positive).
        step: i64,
        /// Loop body.
        body: Vec<Instr>,
    },
    /// `for var in range(start, end): body` with *data-dependent* scalar
    /// bounds — the variable-length loop that Einsums cannot express (§4)
    /// but hand-written CSR/BCSR baseline kernels rely on.
    LoopDyn {
        /// Register receiving the induction value each iteration.
        var: Reg,
        /// Scalar register holding the first induction value.
        start: Reg,
        /// Scalar register holding the exclusive upper bound.
        end: Reg,
        /// Loop body.
        body: Vec<Instr>,
    },
}

/// How an instruction reads one of its operand registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Use {
    /// The operand's elements flow into the instruction's result, or are
    /// the value a store or atomic add writes.
    Value,
    /// The operand decides *where* or *whether*: an access's offset or
    /// mask, a dynamic loop's bounds. Nothing of its elements reaches
    /// memory through this edge, which is where a value slice is cut.
    Index,
}

/// The registers an instruction reads itself — at most three — each with
/// how it reads them ([`Instr::operands`]); derefs to a slice.
#[derive(Debug, Clone, Copy)]
pub struct Operands {
    ops: [(Reg, Use); 3],
    len: u8,
}

impl Operands {
    fn push(&mut self, r: Reg, u: Use) {
        self.ops[usize::from(self.len)] = (r, u);
        self.len += 1;
    }
}

impl std::ops::Deref for Operands {
    type Target = [(Reg, Use)];

    fn deref(&self) -> &[(Reg, Use)] {
        &self.ops[..usize::from(self.len)]
    }
}

impl Instr {
    /// The register this instruction writes: its `dst`, or a loop's
    /// induction variable; `None` for `Store` and `AtomicAdd`. Writes
    /// inside a loop body belong to the body's instructions.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Instr::ProgramId { dst, .. }
            | Instr::Const { dst, .. }
            | Instr::Arange { dst, .. }
            | Instr::Full { dst, .. }
            | Instr::Binary { dst, .. }
            | Instr::ExpandDims { dst, .. }
            | Instr::Broadcast { dst, .. }
            | Instr::View { dst, .. }
            | Instr::Trans { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::Dot { dst, .. }
            | Instr::Sum { dst, .. } => Some(*dst),
            Instr::Loop { var, .. } | Instr::LoopDyn { var, .. } => Some(*var),
            Instr::Store { .. } | Instr::AtomicAdd { .. } => None,
        }
    }

    /// The registers this instruction reads itself (not its loop body),
    /// in field order, each with how it is read. A register read twice
    /// (`dot(a, a)`) is reported twice.
    pub fn operands(&self) -> Operands {
        use Use::{Index, Value};
        let mut ops = Operands {
            ops: [(0, Value); 3],
            len: 0,
        };
        match *self {
            Instr::ProgramId { .. }
            | Instr::Const { .. }
            | Instr::Arange { .. }
            | Instr::Full { .. }
            | Instr::Loop { .. } => {}
            Instr::Binary { a, b, .. } | Instr::Dot { a, b, .. } => {
                ops.push(a, Value);
                ops.push(b, Value);
            }
            Instr::ExpandDims { src, .. }
            | Instr::Broadcast { src, .. }
            | Instr::View { src, .. }
            | Instr::Trans { src, .. }
            | Instr::Sum { src, .. } => ops.push(src, Value),
            Instr::Load { offset, mask, .. } => {
                ops.push(offset, Index);
                mask.into_iter().for_each(|m| ops.push(m, Index));
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
            } => {
                ops.push(offset, Index);
                ops.push(value, Value);
                mask.into_iter().for_each(|m| ops.push(m, Index));
            }
            Instr::LoopDyn { start, end, .. } => {
                ops.push(start, Index);
                ops.push(end, Index);
            }
        }
        ops
    }

    /// A loop's body; empty for every other instruction.
    #[inline]
    pub fn body(&self) -> &[Instr] {
        match self {
            Instr::Loop { body, .. } | Instr::LoopDyn { body, .. } => body,
            _ => &[],
        }
    }
}

/// Visit every instruction in `body` in pre-order (a loop before its
/// body), recursing into loop bodies: the one walk over the IR.
pub fn visit_instrs<'a, F: FnMut(&'a Instr)>(body: &'a [Instr], f: &mut F) {
    for instr in body {
        f(instr);
        let inner = instr.body();
        if !inner.is_empty() {
            visit_instrs(inner, f);
        }
    }
}

/// Declaration of a kernel parameter (a device tensor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDecl {
    /// Parameter name (used by the printer and for binding diagnostics).
    pub name: String,
    /// True if the kernel writes this parameter.
    pub written: bool,
}

impl ParamDecl {
    /// A read-only parameter.
    pub fn input(name: &str) -> ParamDecl {
        ParamDecl {
            name: name.to_string(),
            written: false,
        }
    }

    /// A written (output) parameter.
    pub fn output(name: &str) -> ParamDecl {
        ParamDecl {
            name: name.to_string(),
            written: true,
        }
    }
}

/// A complete kernel: parameters plus a straight-line body with loops.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name (appears in printed source and profiles).
    pub name: String,
    /// Parameter declarations, bound positionally at launch.
    pub params: Vec<ParamDecl>,
    /// The body.
    pub body: Vec<Instr>,
    /// Number of virtual registers used.
    pub num_regs: usize,
}

/// Structural validation error for kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelError(pub String);

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid kernel: {}", self.0)
    }
}

impl Error for KernelError {}

impl Kernel {
    /// Validate structural invariants: register bounds, parameter bounds,
    /// positive loop steps, and that stores only target written params.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] describing the first violation found.
    pub fn validate(&self) -> crate::Result<()> {
        let mut result = Ok(());
        visit_instrs(&self.body, &mut |instr| {
            if result.is_ok() {
                result = self.check(instr);
            }
        });
        result
    }

    /// [`Kernel::validate`] for one instruction, without its loop body.
    fn check(&self, instr: &Instr) -> crate::Result<()> {
        let operands = instr.operands();
        let mut regs = instr
            .dst()
            .into_iter()
            .chain(operands.iter().map(|&(r, _)| r));
        if let Some(r) = regs.find(|&r| r >= self.num_regs) {
            return Err(KernelError(format!(
                "register {r} out of range ({} registers declared)",
                self.num_regs
            )));
        }
        match instr {
            Instr::Load { param, .. } => self.check_param(*param, false),
            Instr::Store { param, .. } | Instr::AtomicAdd { param, .. } => {
                self.check_param(*param, true)
            }
            Instr::Loop { step, .. } if *step <= 0 => {
                Err(KernelError(format!("loop step {step} must be positive")))
            }
            Instr::ProgramId { axis, .. } if *axis >= 3 => {
                Err(KernelError(format!("program_id axis {axis} must be < 3")))
            }
            _ => Ok(()),
        }
    }

    fn check_param(&self, param: usize, needs_write: bool) -> crate::Result<()> {
        let decl = self
            .params
            .get(param)
            .ok_or_else(|| KernelError(format!("parameter index {param} out of range")))?;
        if needs_write && !decl.written {
            return Err(KernelError(format!(
                "parameter {:?} is stored to but not declared written",
                decl.name
            )));
        }
        Ok(())
    }

    /// Count instructions, recursing into loop bodies (static count, not
    /// dynamic trip counts).
    pub fn instruction_count(&self) -> usize {
        let mut n = 0;
        visit_instrs(&self.body, &mut |_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial_kernel() -> Kernel {
        Kernel {
            name: "t".into(),
            params: vec![ParamDecl::input("A"), ParamDecl::output("C")],
            body: vec![
                Instr::ProgramId { dst: 0, axis: 0 },
                Instr::Load {
                    dst: 1,
                    param: 0,
                    offset: 0,
                    mask: None,
                    other: 0.0,
                },
                Instr::Store {
                    param: 1,
                    offset: 0,
                    value: 1,
                    mask: None,
                },
            ],
            num_regs: 2,
        }
    }

    #[test]
    fn valid_kernel_passes() {
        trivial_kernel().validate().unwrap();
    }

    /// A builder of one instruction from the registers of its register
    /// fields in declaration order, with the positions read as
    /// [`Use::Index`].
    type Variant = (usize, fn(&[Reg]) -> Instr, &'static [usize]);

    /// Every variant once (with and without the optional mask).
    fn variants() -> Vec<Variant> {
        vec![
            (1, |r| Instr::ProgramId { dst: r[0], axis: 0 }, &[]),
            (
                1,
                |r| Instr::Const {
                    dst: r[0],
                    value: 1.0,
                },
                &[],
            ),
            (1, |r| Instr::Arange { dst: r[0], len: 4 }, &[]),
            (
                1,
                |r| Instr::Full {
                    dst: r[0],
                    shape: vec![4],
                    value: 0.0,
                },
                &[],
            ),
            (
                3,
                |r| Instr::Binary {
                    dst: r[0],
                    op: BinOp::Add,
                    a: r[1],
                    b: r[2],
                },
                &[],
            ),
            (
                2,
                |r| Instr::ExpandDims {
                    dst: r[0],
                    src: r[1],
                    axis: 0,
                },
                &[],
            ),
            (
                2,
                |r| Instr::Broadcast {
                    dst: r[0],
                    src: r[1],
                    shape: vec![4],
                },
                &[],
            ),
            (
                2,
                |r| Instr::View {
                    dst: r[0],
                    src: r[1],
                    shape: vec![4],
                },
                &[],
            ),
            (
                2,
                |r| Instr::Trans {
                    dst: r[0],
                    src: r[1],
                },
                &[],
            ),
            (
                3,
                |r| Instr::Load {
                    dst: r[0],
                    param: 0,
                    offset: r[1],
                    mask: Some(r[2]),
                    other: 0.0,
                },
                &[1, 2],
            ),
            (
                2,
                |r| Instr::Load {
                    dst: r[0],
                    param: 0,
                    offset: r[1],
                    mask: None,
                    other: 0.0,
                },
                &[1],
            ),
            (
                3,
                |r| Instr::Store {
                    param: 1,
                    offset: r[0],
                    value: r[1],
                    mask: Some(r[2]),
                },
                &[0, 2],
            ),
            (
                2,
                |r| Instr::Store {
                    param: 1,
                    offset: r[0],
                    value: r[1],
                    mask: None,
                },
                &[0],
            ),
            (
                3,
                |r| Instr::AtomicAdd {
                    param: 1,
                    offset: r[0],
                    value: r[1],
                    mask: Some(r[2]),
                },
                &[0, 2],
            ),
            (
                2,
                |r| Instr::AtomicAdd {
                    param: 1,
                    offset: r[0],
                    value: r[1],
                    mask: None,
                },
                &[0],
            ),
            (
                3,
                |r| Instr::Dot {
                    dst: r[0],
                    a: r[1],
                    b: r[2],
                },
                &[],
            ),
            (
                2,
                |r| Instr::Sum {
                    dst: r[0],
                    src: r[1],
                    axis: 0,
                },
                &[],
            ),
            (
                1,
                |r| Instr::Loop {
                    var: r[0],
                    start: 0,
                    end: 4,
                    step: 1,
                    body: vec![],
                },
                &[],
            ),
            (
                3,
                |r| Instr::LoopDyn {
                    var: r[0],
                    start: r[1],
                    end: r[2],
                    body: vec![],
                },
                &[1, 2],
            ),
        ]
    }

    /// Exhaustive on purpose: a new variant fails to compile here until
    /// [`variants`] builds it.
    fn variant_index(instr: &Instr) -> usize {
        match instr {
            Instr::ProgramId { .. } => 0,
            Instr::Const { .. } => 1,
            Instr::Arange { .. } => 2,
            Instr::Full { .. } => 3,
            Instr::Binary { .. } => 4,
            Instr::ExpandDims { .. } => 5,
            Instr::Broadcast { .. } => 6,
            Instr::View { .. } => 7,
            Instr::Trans { .. } => 8,
            Instr::Load { .. } => 9,
            Instr::Store { .. } => 10,
            Instr::AtomicAdd { .. } => 11,
            Instr::Dot { .. } => 12,
            Instr::Sum { .. } => 13,
            Instr::Loop { .. } => 14,
            Instr::LoopDyn { .. } => 15,
        }
    }

    #[test]
    fn edge_table_reports_every_register_field_once() {
        let mut covered = [false; 16];
        for (fields, make, index_positions) in variants() {
            let regs: Vec<Reg> = (10..10 + fields).collect();
            let instr = make(&regs);
            covered[variant_index(&instr)] = true;
            let mut reported: Vec<Reg> = instr.dst().into_iter().collect();
            reported.extend(instr.operands().iter().map(|&(r, _)| r));
            reported.sort_unstable();
            assert_eq!(reported, regs, "{instr:?}");
            let index: Vec<Reg> = instr
                .operands()
                .iter()
                .filter(|&&(_, u)| u == Use::Index)
                .map(|&(r, _)| r)
                .collect();
            let want: Vec<Reg> = index_positions.iter().map(|&p| regs[p]).collect();
            assert_eq!(index, want, "{instr:?}");
        }
        assert!(covered.iter().all(|&c| c), "every variant is built");
    }

    #[test]
    fn register_out_of_range_rejected_in_every_position() {
        for (fields, make, _) in variants() {
            let in_range: Vec<Reg> = (1..=fields).collect();
            let mut k = trivial_kernel();
            k.num_regs = 5;
            k.body = vec![make(&in_range)];
            k.validate().unwrap();
            for pos in 0..fields {
                let mut regs = in_range.clone();
                regs[pos] = 5;
                k.body = vec![make(&regs)];
                let err = k.validate().unwrap_err();
                assert!(err.to_string().contains("register 5 out of range"), "{err}");
                // Inside a loop body too.
                k.body = vec![Instr::Loop {
                    var: 0,
                    start: 0,
                    end: 1,
                    step: 1,
                    body: vec![make(&regs)],
                }];
                assert!(k.validate().is_err());
            }
        }
    }

    #[test]
    fn register_out_of_range_rejected() {
        let mut k = trivial_kernel();
        k.num_regs = 1;
        assert!(k.validate().is_err());
    }

    #[test]
    fn store_to_readonly_param_rejected() {
        let mut k = trivial_kernel();
        k.params[1].written = false;
        let err = k.validate().unwrap_err();
        assert!(err.to_string().contains("not declared written"));
    }

    #[test]
    fn bad_param_index_rejected() {
        let mut k = trivial_kernel();
        k.body.push(Instr::Load {
            dst: 1,
            param: 9,
            offset: 0,
            mask: None,
            other: 0.0,
        });
        assert!(k.validate().is_err());
    }

    #[test]
    fn nonpositive_loop_step_rejected() {
        let mut k = trivial_kernel();
        k.body.push(Instr::Loop {
            var: 0,
            start: 0,
            end: 4,
            step: 0,
            body: vec![],
        });
        assert!(k.validate().is_err());
    }

    #[test]
    fn nested_loop_bodies_validated() {
        let mut k = trivial_kernel();
        k.body.push(Instr::Loop {
            var: 0,
            start: 0,
            end: 4,
            step: 1,
            body: vec![Instr::Const {
                dst: 99,
                value: 1.0,
            }],
        });
        assert!(k.validate().is_err());
    }

    #[test]
    fn instruction_count_recurses() {
        let mut k = trivial_kernel();
        k.body.push(Instr::Loop {
            var: 0,
            start: 0,
            end: 4,
            step: 1,
            body: vec![Instr::Const { dst: 1, value: 1.0 }],
        });
        assert_eq!(k.instruction_count(), 5);
    }

    #[test]
    fn program_id_axis_bounded() {
        let mut k = trivial_kernel();
        k.body.push(Instr::ProgramId { dst: 0, axis: 3 });
        assert!(k.validate().is_err());
    }
}
