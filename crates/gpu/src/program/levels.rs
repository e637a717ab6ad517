//! Analysis 1 (see the parent module docs): pid-dependence levels.

use super::Dataflow;
use insum_kernel::{visit_instrs, Instr};

pub(super) struct Levels {
    /// Invariance level per register: 0 grid-invariant, 1 row-invariant
    /// (axis 0 free), 2 per-instance.
    pub(super) reg: Vec<u8>,
}

impl Levels {
    /// An instruction's level is the max of its intrinsic level
    /// (`program_id` axes, loads from written parameters) and its
    /// operands' levels; a register's level is the max over its writers
    /// (a dynamic loop's variable: over its bounds).
    ///
    /// The grid decides what `program_id` costs: along an axis of extent
    /// 1 it is the constant 0 (level 0), and when axis 0 has extent 1 a
    /// row is one instance, so a per-row tier would record streams every
    /// instance and replay them never — level 1 then folds into level 2
    /// and only the grid-invariant tier remains (no node of such a
    /// program is cached at level 1).
    pub(super) fn analyze(flow: &Dataflow, written: &[bool], gdims: [usize; 3]) -> Levels {
        let mut reg = flow.solve(0u8, 2, |e, reg| {
            if let Some(dst) = e.dst {
                let lvl = e
                    .operands
                    .iter()
                    .fold(intrinsic(e.instr, written, gdims), |l, &(r, _)| {
                        l.max(reg[r])
                    });
                reg[dst] = reg[dst].max(lvl);
            }
        });
        if gdims[0] == 1 {
            for l in &mut reg {
                if *l == 1 {
                    *l = 2;
                }
            }
        }
        Levels { reg }
    }

    /// The level at which `instr` must execute: the max level of every
    /// register it (or its loop body) writes, and 2 for memory writes
    /// (their effects accumulate or must stay ordered against other
    /// instances). A dynamic loop's trip count is covered by its
    /// variable, whose level is at least its bounds'.
    pub(super) fn of(&self, instr: &Instr) -> u8 {
        let mut lvl = 0u8;
        visit_instrs(std::slice::from_ref(instr), &mut |i| {
            lvl = lvl.max(i.dst().map_or(2, |r| self.reg[r]));
        });
        lvl
    }
}

fn intrinsic(instr: &Instr, written: &[bool], gdims: [usize; 3]) -> u8 {
    match instr {
        Instr::ProgramId { axis, .. } => match *axis {
            a if gdims.get(a) == Some(&1) => 0,
            0 => 2,
            _ => 1,
        },
        // Loads from parameters the kernel also writes see evolving
        // data: never cacheable across instances.
        Instr::Load { param, .. } if written[*param] => 2,
        _ => 0,
    }
}
