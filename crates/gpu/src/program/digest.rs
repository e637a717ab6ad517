//! A digest of everything [`Program::compile`] derives from a kernel and
//! a launch shape: unit modes and release lists, node cache levels and
//! value-slice flags, every [`SiteInfo`] field, the separable sites, the
//! dot-operand masks, the per-instance registers, `dedup_ok` and the
//! replay decline. Golden digests (`crates/core/tests/analysis_digests.rs`)
//! pin them, so a refactor of the analyses can show it changed nothing.

use super::{CInstr, Program, ReplayDecline};
use insum_kernel::Fnv;
use std::cell::RefCell;
use std::fmt::Write;

/// What is noted of one compiled program: its digest, and how it
/// relaunches — `Ok` by value tape, or why it never replays.
pub type Note = (u64, Result<(), ReplayDecline>);

thread_local! {
    /// The notes of the programs this thread compiles while
    /// [`record_programs`] runs.
    static RECORDING: RefCell<Option<Vec<Note>>> = const { RefCell::new(None) };
}

/// Run `f` and return, with its result, a note of every [`Program`]
/// compiled on this thread while it ran, in compile order: its analysis
/// digest, and how it relaunches — `Ok` when a relaunch with the same I32
/// arguments replays by value tape, else the [`ReplayDecline`], its own
/// or its tape's (the tape is lowered here to find out). Programs served
/// from a cache without compiling do not appear.
#[doc(hidden)]
pub fn record_programs<R>(f: impl FnOnce() -> R) -> (R, Vec<Note>) {
    let outer = RECORDING.with(|r| r.borrow_mut().replace(Vec::new()));
    let out = f();
    let notes = RECORDING.with(|r| std::mem::replace(&mut *r.borrow_mut(), outer));
    (out, notes.unwrap_or_default())
}

/// Append `program`'s note to the recording, if one is running.
pub(super) fn note(program: &Program) {
    RECORDING.with(|r| {
        if let Some(notes) = r.borrow_mut().as_mut() {
            let replay = match program.replay_decline() {
                Some(why) => Err(why),
                None => program.tape().map(drop),
            };
            notes.push((program.analysis_digest(), replay));
        }
    });
}

impl Program {
    /// FNV-1a over a canonical rendering of what compilation derived (see
    /// the `digest` module docs). Equal digests mean equal analyses.
    #[doc(hidden)]
    pub fn analysis_digest(&self) -> u64 {
        let mut s = String::new();
        let _ = writeln!(s, "{} {:?} {}", self.num_regs, self.grid, self.instances);
        for unit in &self.units {
            let _ = writeln!(
                s,
                "unit {:?} value={} release={:?}",
                unit.mode, unit.value, unit.release
            );
            instr(&unit.instr, &mut s);
        }
        let _ = writeln!(s, "{:?}", self.sites);
        let _ = writeln!(s, "{:?}", self.row_sites);
        let _ = writeln!(s, "{:?}", self.dot_sources);
        let _ = writeln!(
            s,
            "level2={:?} dedup={} decline={:?} parallel={} f16={}",
            self.level2_regs,
            self.dedup_ok,
            self.replay_decline(),
            self.parallel_execute_ok,
            self.dot_f16
        );
        let mut h = Fnv::new();
        h.str(&s);
        h.finish()
    }
}

fn instr(i: &CInstr, s: &mut String) {
    let body = match i {
        CInstr::Loop {
            var,
            start,
            end,
            step,
            body,
        } => {
            let _ = writeln!(s, "loop {var} {start} {end} {step}");
            body
        }
        CInstr::LoopDyn {
            var,
            start,
            end,
            body,
            ..
        } => {
            let _ = writeln!(s, "loop_dyn {var} {start} {end}");
            body
        }
        leaf => {
            let _ = writeln!(s, "{leaf:?}");
            return;
        }
    };
    for node in body {
        let level = node.cached.map(|(level, _)| level);
        let _ = writeln!(s, "node cached={level:?} value={}", node.value);
        instr(&node.instr, s);
    }
    let _ = writeln!(s, "end");
}
