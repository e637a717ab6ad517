//! The value tape: how every Execute launch computes values (`program.rs`,
//! analysis 7).
//!
//! The tape executes only the kernel's value slice, against addresses
//! and trip counts the machine wrote down (`script.rs`) — in a full
//! launch, chunk by chunk right after the machine ran those instances'
//! index slice; in a replay, from a script an earlier launch kept — so
//! nothing it does depends on the machine's register file. On its first
//! Execute launch a program lowers that slice once into a tape: a
//! straight-line list of typed tile ops over the slots of one per-thread
//! arena of `f64` buffers, which later launches reuse. Every register
//! the slice computes owns a slot, and
//! every operand is a [`Loc`] — a slot and a static strided view of it —
//! so `expand_dims`, `broadcast_to`, `trans` and `view` are stride
//! metadata settled while the tape is built and run nothing. What runs
//! is one call per op into the bodies a full launch runs: [`gather`] /
//! [`scatter`] for the access sites (their rows decoded from the
//! script's [`Cursor`]), and the elementwise, `tl.dot` and reduction
//! bodies of `block.rs`. A dynamic loop reads its trip count from the
//! script; its variable has no place on the tape.
//!
//! Frequencies are the program's: a `Once` unit runs on a shard's first
//! instance and a `PerRow` unit on a row's first, and an invariant op
//! inside a per-instance loop records its tile per occurrence on the
//! representative, where later instances read it in place, as the
//! machine's stream cache does — which is also what script streams 0
//! and 1 assume. So the tape executes the value slice's instructions in
//! the kernel's order, on the same values, through the same bodies: a
//! replay's output bits are a full launch's, which debug builds check on
//! every replayed launch (`Program::launch_with`), and a full launch's
//! are the seed interpreter's (`tests/tape.rs`).
//!
//! A register's place must not depend on the path that reached it. While
//! building, each read checks that its view still shows the write it was
//! taken of, and every loop body is walked twice — the second walk as
//! the second iteration — and must leave every place where the first
//! found it.
//!
//! A program whose value slice the tape cannot place statically
//! ([`ReplayDecline::MovingTile`]) has no Execute launch: it is a
//! [`GpuError::Kernel`](crate::GpuError) on the first one.

use super::row_run::{decode, direct_lanes, gather, scatter, stage_value, RowScratch, Scripted};
use super::{pid_of, ArgsView, Tally, WriteOp};
use crate::block::{
    assign_into, binary_into, canonical_dot_into, elementwise_isa, exact_dot_into, sum_axis_into,
    Geom, Shape4, Tile, MAX_RANK,
};
use crate::isa::Isa;
use crate::program::{CInstr, CNode, Program, ReplayDecline, UnitMode};
use crate::script::{Cursor, Form, Script};
use insum_kernel::{BinOp, Reg};
use insum_tensor::DType;
use std::cell::Cell;
use std::fmt::Write;

/// Where an operand's elements live: a strided view of one arena slot.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Loc {
    slot: u32,
    geom: Geom,
}

impl Loc {
    fn shape(&self) -> &[usize] {
        self.geom.shape()
    }

    fn tile<'a>(&self, data: &'a [f64]) -> Tile<'a> {
        Tile {
            data,
            geom: self.geom,
        }
    }
}

/// When a step runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum When {
    /// On a shard's first instance.
    Once,
    /// On a row's first instance.
    PerRow,
    /// Every time control reaches it.
    Always,
    /// An invariant op inside a per-instance loop, its tile recorded per
    /// occurrence in stream `level` (0 per shard, 1 per row) by the
    /// representative, and read from there by later instances.
    Cached { level: u8 },
}

/// One typed tile op; `dst` is a slot.
#[derive(Debug)]
enum Op {
    Pid {
        dst: u32,
        axis: usize,
    },
    /// A constant or `full`: `len` copies of `value`.
    Fill {
        dst: u32,
        len: usize,
        value: f64,
    },
    Arange {
        dst: u32,
        len: usize,
    },
    /// `acc`: `a` is the whole destination and `b` a scalar or a
    /// contiguous tile of its shape — the accumulator `acc = acc <op> v`,
    /// computed in place.
    Binary {
        dst: u32,
        op: BinOp,
        a: Loc,
        b: Loc,
        acc: bool,
    },
    /// `tl.dot`, exact or canonical as the operand registers' provenance
    /// and this launch's non-finite scan decide.
    Dot {
        dst: u32,
        a: Loc,
        b: Loc,
        regs: (Reg, Reg),
    },
    Sum {
        dst: u32,
        src: Loc,
        axis: usize,
    },
    /// A strided tile copied out row-major: a `view` strides cannot
    /// express.
    Pack {
        dst: u32,
        src: Loc,
    },
    /// A load of value site `site`, whose lanes have shape `lanes`.
    GatherRows {
        dst: u32,
        site: u32,
        lanes: Shape4,
        other: f64,
    },
    /// A store or atomic add of `val` at value site `site`.
    WriteRows {
        site: u32,
        lanes: Shape4,
        val: Loc,
    },
    Loop {
        var: u32,
        start: i64,
        end: i64,
        step: i64,
        body: Vec<Step>,
    },
    /// A dynamic loop: its trip count is the next word of stream `level`.
    LoopDyn {
        level: u8,
        body: Vec<Step>,
    },
}

#[derive(Debug)]
struct Step {
    when: When,
    op: Op,
}

/// A program's value slice as straight-line tile ops.
#[derive(Debug)]
pub(crate) struct Tape {
    steps: Vec<Step>,
    slots: usize,
}

/// One thread's tile buffers, reused by every tape launch on it.
#[derive(Default)]
struct Arena {
    slots: Vec<Vec<f64>>,
    /// Per slot, where its current tile is.
    held: Vec<Held>,
    /// The stream cache: the tiles invariant ops recorded, per level;
    /// how many this shard or row recorded; how many this instance read.
    streams: [Vec<Vec<f64>>; 2],
    recorded: [usize; 2],
    cursors: [usize; 2],
    /// A written value staged to its site's lanes, or an operand that
    /// aliases its op's destination.
    scratch: Vec<f64>,
    rows: RowScratch,
}

thread_local! {
    static ARENA: Cell<Arena> = Cell::new(Arena::default());
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

/// The tape under construction: per register, where its value lives and
/// which write of its slot that is. A view is valid only while its slot
/// holds the write it was taken of.
struct Builder<'p> {
    program: &'p Program,
    slot_of: Vec<Option<u32>>,
    loc: Vec<Option<Loc>>,
    /// Per register, the write count of its location's slot when the
    /// location was taken; per slot, its write count.
    taken: Vec<u32>,
    writes: Vec<u32>,
}

type Built<T> = Result<T, ReplayDecline>;

impl Tape {
    /// Lower `program`'s value slice (see the module docs).
    pub(crate) fn build(program: &Program) -> Built<Tape> {
        // `u32::MAX` marks an inactive row in a script.
        if program
            .params
            .lens
            .iter()
            .any(|&len| len >= u32::MAX as usize)
        {
            return Err(ReplayDecline::WideAddress);
        }
        let mut b = Builder {
            program,
            slot_of: vec![None; program.num_regs],
            loc: vec![None; program.num_regs],
            taken: vec![0; program.num_regs],
            writes: Vec::new(),
        };
        let mut steps = Vec::new();
        for unit in program.units.iter().filter(|u| u.value) {
            let when = match unit.mode {
                UnitMode::Once => When::Once,
                UnitMode::PerRow => When::PerRow,
                UnitMode::PerInstance => When::Always,
            };
            if let Some(op) = b.lower(&unit.instr)? {
                steps.push(Step { when, op });
            }
        }
        Ok(Tape {
            steps,
            slots: b.writes.len(),
        })
    }
}

impl Builder<'_> {
    /// Where register `r` is read from here.
    fn read(&self, r: Reg) -> Built<Loc> {
        match self.loc[r] {
            Some(loc) if self.taken[r] == self.writes[loc.slot as usize] => Ok(loc),
            _ => Err(ReplayDecline::MovingTile),
        }
    }

    /// A new value of shape `shape` in `r`'s own slot.
    fn write(&mut self, r: Reg, shape: Shape4) -> u32 {
        let slot = *self.slot_of[r].get_or_insert_with(|| {
            self.writes.push(0);
            (self.writes.len() - 1) as u32
        });
        self.writes[slot as usize] += 1;
        self.loc[r] = Some(Loc {
            slot,
            geom: Geom::contiguous(shape, 0),
        });
        self.taken[r] = self.writes[slot as usize];
        slot
    }

    /// `r` as the view `f` takes of `src`'s value: stride metadata, no op.
    fn view(
        &mut self,
        r: Reg,
        src: Reg,
        f: impl FnOnce(&Geom) -> Option<Geom>,
    ) -> Built<Option<Op>> {
        let from = self.read(src)?;
        let geom = f(&from.geom).ok_or(ReplayDecline::MovingTile)?;
        self.loc[r] = Some(Loc { geom, ..from });
        self.taken[r] = self.taken[src];
        Ok(None)
    }

    fn lower_body(&mut self, body: &[CNode]) -> Built<Vec<Step>> {
        let mut steps = Vec::new();
        for node in body.iter().filter(|n| n.value) {
            let Some(op) = self.lower(&node.instr)? else {
                continue;
            };
            let when = match node.cached {
                Some((level, _)) => When::Cached { level },
                None => When::Always,
            };
            steps.push(Step { when, op });
        }
        Ok(steps)
    }

    /// The op `instr` runs, `None` for stride metadata.
    fn lower(&mut self, instr: &CInstr) -> Built<Option<Op>> {
        let scalar = Shape4::from_slice(&[]);
        let op = match *instr {
            CInstr::ProgramId { dst, axis } => Op::Pid {
                dst: self.write(dst, scalar),
                axis,
            },
            CInstr::Const { dst, value } => Op::Fill {
                dst: self.write(dst, scalar),
                len: 1,
                value,
            },
            CInstr::Arange { dst, len } => Op::Arange {
                dst: self.write(dst, Shape4::from_slice(&[len])),
                len,
            },
            CInstr::Full {
                dst,
                ref shape,
                value,
            } => {
                let shape = packed(shape)?;
                Op::Fill {
                    dst: self.write(dst, shape),
                    len: shape.volume(),
                    value,
                }
            }
            CInstr::Binary { dst, op, a, b } => {
                if self.program.row_sites.elided_lanes(dst).is_some() {
                    // An offset add is index work; the slice never needs it.
                    return Err(ReplayDecline::MovingTile);
                }
                let (a, b) = (self.read(a)?, self.read(b)?);
                let shape =
                    Shape4::try_joint(a.shape(), b.shape()).ok_or(ReplayDecline::UnknownShape)?;
                let dst = self.write(dst, shape);
                let whole = Geom::contiguous(a.geom.shape4(), 0);
                let acc = (a.slot, a.geom) == (dst, whole)
                    && b.slot != dst
                    && (b.shape().is_empty() || (b.shape() == a.shape() && b.geom.is_contiguous()));
                Op::Binary { dst, op, a, b, acc }
            }
            CInstr::Dot { dst, a: ra, b: rb } => {
                let (a, b) = (self.read(ra)?, self.read(rb)?);
                let (&[m, k], &[k2, n]) = (a.shape(), b.shape()) else {
                    return Err(ReplayDecline::UnknownShape);
                };
                if k != k2 {
                    return Err(ReplayDecline::UnknownShape);
                }
                Op::Dot {
                    dst: self.write(dst, Shape4::from_slice(&[m, n])),
                    a,
                    b,
                    regs: (ra, rb),
                }
            }
            CInstr::Sum { dst, src, axis } => {
                let src = self.read(src)?;
                if axis >= src.shape().len() {
                    return Err(ReplayDecline::UnknownShape);
                }
                let mut dims = src.shape().to_vec();
                dims.remove(axis);
                Op::Sum {
                    dst: self.write(dst, Shape4::from_slice(&dims)),
                    src,
                    axis,
                }
            }
            CInstr::ExpandDims { dst, src, axis } => {
                return self.view(dst, src, |g| g.expand_dims(axis))
            }
            CInstr::Broadcast {
                dst,
                src,
                ref shape,
            } => return self.view(dst, src, |g| g.broadcast(shape)),
            CInstr::Trans { dst, src } => return self.view(dst, src, Geom::trans),
            CInstr::View {
                dst,
                src,
                ref shape,
            } => {
                let shape = packed(shape)?;
                let from = self.read(src)?;
                if from.geom.reshape(shape).is_some() {
                    return self.view(dst, src, |g| g.reshape(shape));
                }
                Op::Pack {
                    dst: self.write(dst, shape),
                    src: from,
                }
            }
            CInstr::Load {
                dst, other, site, ..
            } => {
                let lanes = self.lanes(site)?;
                Op::GatherRows {
                    dst: self.write(dst, lanes),
                    site,
                    lanes,
                    other,
                }
            }
            CInstr::Store { value, site, .. } | CInstr::AtomicAdd { value, site, .. } => {
                Op::WriteRows {
                    site,
                    lanes: self.lanes(site)?,
                    val: self.read(value)?,
                }
            }
            CInstr::Loop {
                var,
                start,
                end,
                step,
                ref body,
            } => {
                let slot = self.write(var, scalar);
                Op::Loop {
                    var: slot,
                    start,
                    end,
                    step,
                    body: self.lower_loop(Some(var), body)?,
                }
            }
            CInstr::LoopDyn {
                var,
                trips,
                ref body,
                ..
            } => {
                self.loc[var] = None;
                let before = self.loc.clone();
                let body = self.lower_loop(None, body)?;
                // The loop may run no iteration: what it first places has
                // no place after it.
                for (now, was) in self.loc.iter_mut().zip(&before) {
                    if was.is_none() {
                        *now = None;
                    }
                }
                Op::LoopDyn {
                    level: trips.ok_or(ReplayDecline::MovingTile)?,
                    body,
                }
            }
        };
        Ok(Some(op))
    }

    /// Lower a loop body, whose variable `var` (a static loop's) the
    /// caller has placed. Every iteration must find each tile where the
    /// first did: walk the body once more, as the second iteration, and
    /// compare.
    fn lower_loop(&mut self, var: Option<Reg>, body: &[CNode]) -> Built<Vec<Step>> {
        let before = self.loc.clone();
        let steps = self.lower_body(body)?;
        let after = self.loc.clone();
        if let Some(var) = var {
            self.write(var, Shape4::from_slice(&[]));
        }
        self.lower_body(body)?;
        let moved = |then: &[Option<Loc>]| {
            then.iter()
                .zip(&self.loc)
                .any(|(was, now)| was.is_some() && was != now)
        };
        if moved(&before) || moved(&after) {
            return Err(ReplayDecline::MovingTile);
        }
        Ok(steps)
    }

    /// The static lane shape of value site `site`.
    fn lanes(&self, site: u32) -> Built<Shape4> {
        self.program.sites[site as usize]
            .lanes
            .ok_or(ReplayDecline::UnknownShape)
    }
}

fn packed(shape: &[usize]) -> Built<Shape4> {
    if shape.len() > MAX_RANK {
        return Err(ReplayDecline::UnknownShape);
    }
    Ok(Shape4::from_slice(shape))
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Where a slot's current tile is: its own buffer, or — an invariant op
/// replayed from the stream cache — a recorded tile, read in place.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Held {
    Own,
    Stream { level: u8, at: u32 },
}

/// The tiles the slots hold, for reading.
#[derive(Clone, Copy)]
struct Tiles<'s> {
    slots: &'s [Vec<f64>],
    held: &'s [Held],
    streams: &'s [Vec<Vec<f64>>; 2],
}

impl<'s> Tiles<'s> {
    fn data(&self, slot: u32) -> &'s [f64] {
        match self.held[slot as usize] {
            Held::Own => &self.slots[slot as usize],
            Held::Stream { level, at } => &self.streams[level as usize][at as usize],
        }
    }
}

/// What a range's instances share: the program, the launch's non-finite
/// mask, the bodies' rungs (the widest, and the elementwise ops'), and
/// whether to count value sites (a replay; a full launch's machine does).
#[derive(Clone, Copy)]
struct Ctx<'p> {
    program: &'p Program,
    nonfinite: u64,
    isa: Isa,
    elementwise: Isa,
    count_sites: bool,
}

/// What every op of one instance reads besides the arena.
struct Run<'r, 'a, 'b> {
    ctx: Ctx<'r>,
    cursor: Cursor<'r>,
    args: &'r mut ArgsView<'a, 'b>,
    pid: [usize; 3],
    /// Recording the stream caches: a shard's first instance (level 0),
    /// a row's first (level 1).
    record: [bool; 2],
    /// The writes deferred to a log (shared arguments) and what was
    /// dispatched.
    log: Vec<WriteOp>,
    tally: Tally,
}

/// The tape of one range of instances, with the arena, taken from the
/// thread for as long as the range runs.
pub(super) struct TapeRun<'p> {
    tape: &'p Tape,
    ctx: Ctx<'p>,
    arena: Arena,
}

impl<'p> TapeRun<'p> {
    /// A range of `program`'s tape under this launch's non-finite mask;
    /// `count_sites` for a replay.
    pub(super) fn new(
        tape: &'p Tape,
        program: &'p Program,
        nonfinite: u64,
        count_sites: bool,
    ) -> TapeRun<'p> {
        let mut arena = ARENA.with(Cell::take);
        let slots = arena.slots.len().max(tape.slots);
        arena.slots.resize_with(slots, Vec::new);
        arena.held.clear();
        arena.held.resize(slots, Held::Own);
        TapeRun {
            tape,
            ctx: Ctx {
                program,
                nonfinite,
                isa: Isa::detect(),
                elementwise: elementwise_isa(),
                count_sites,
            },
            arena,
        }
    }

    /// Run the instances `[lo, hi)` of the range that begins at `first`
    /// from the segments next at `cursor`, writing in place or into `log`
    /// (shared arguments), dispatches into `tally`.
    pub(super) fn run(
        &mut self,
        cursor: Cursor<'_>,
        (lo, hi): (usize, usize),
        first: usize,
        args: &mut ArgsView<'_, '_>,
        (log, tally): (&mut Vec<WriteOp>, &mut Tally),
    ) {
        let gdims = self.ctx.program.gdims;
        let mut run = Run {
            ctx: self.ctx,
            cursor,
            args,
            // Grid coordinates advance with the instance (axis 0
            // fastest), not by division.
            pid: pid_of(lo, gdims),
            record: [true; 2],
            log: std::mem::take(log),
            tally: Tally::default(),
        };
        for flat in lo..hi {
            let new_shard = flat == first;
            let new_row = new_shard || run.pid[0] == 0;
            // One script segment per shard, per row and per instance.
            for (level, starts) in [new_shard, new_row, true].into_iter().enumerate() {
                if starts {
                    run.cursor.begin(level);
                }
            }
            run.record = [new_shard, new_row];
            let arena = &mut self.arena;
            for (level, starts) in run.record.into_iter().enumerate() {
                if starts {
                    arena.rerecord(level);
                }
            }
            arena.cursors = [0; 2];
            for step in &self.tape.steps {
                let due = match step.when {
                    When::Once => new_shard,
                    When::PerRow => new_row,
                    _ => true,
                };
                if due {
                    run.step(step, arena);
                }
            }
            let pid = &mut run.pid;
            pid[0] += 1;
            if pid[0] == gdims[0] {
                (pid[0], pid[1]) = (0, pid[1] + 1);
                if pid[1] == gdims[1] {
                    (pid[1], pid[2]) = (0, pid[2] + 1);
                }
            }
        }
        *log = run.log;
        tally.merge(&run.tally);
    }
}

impl Drop for TapeRun<'_> {
    fn drop(&mut self) {
        // A thread past its locals' teardown keeps no arena.
        let arena = std::mem::take(&mut self.arena);
        let _ = ARENA.try_with(|a| a.set(arena));
    }
}

impl Tape {
    /// Replay the instances `[lo, hi)` of `program` from `script`, which
    /// one machine recorded over the whole grid: the writes deferred to a
    /// log (shared arguments) and what was dispatched.
    pub(super) fn run_range(
        &self,
        program: &Program,
        script: &Script,
        (lo, hi): (usize, usize),
        args: &mut ArgsView<'_, '_>,
        nonfinite: u64,
    ) -> (Vec<WriteOp>, Tally) {
        let mut out = (Vec::new(), Tally::default());
        let cursor = Cursor::new(script, [0, lo / program.gdims[0], lo]);
        let sink = (&mut out.0, &mut out.1);
        TapeRun::new(self, program, nonfinite, true).run(cursor, (lo, hi), lo, args, sink);
        out
    }
}

impl Arena {
    /// Start recording stream `level` afresh. A slot still reading one of
    /// its tiles — a value the last instance took from the stream cache —
    /// gets its own copy first, as the interpreter's register kept its
    /// own reference.
    fn rerecord(&mut self, level: usize) {
        for (slot, held) in self.held.iter_mut().enumerate() {
            if let Held::Stream { level: l, at } = *held {
                if l as usize == level {
                    let own = &mut self.slots[slot];
                    own.clear();
                    own.extend_from_slice(&self.streams[level][at as usize]);
                    *held = Held::Own;
                }
            }
        }
        self.recorded[level] = 0;
    }
}

impl Run<'_, '_, '_> {
    fn step(&mut self, step: &Step, arena: &mut Arena) {
        let (When::Cached { level }, Some(dst)) = (step.when, step.op.dst()) else {
            return self.op(&step.op, arena);
        };
        let (level, dst) = (level as usize, dst as usize);
        if self.record[level] {
            self.op(&step.op, arena);
            let Arena {
                slots,
                streams,
                recorded,
                ..
            } = arena;
            let stream = &mut streams[level];
            if recorded[level] == stream.len() {
                stream.push(Vec::new());
            }
            let tile = &mut stream[recorded[level]];
            tile.clear();
            tile.extend_from_slice(&slots[dst]);
            recorded[level] += 1;
        } else {
            // Later instances read the representative's tile in place.
            let at = arena.cursors[level];
            arena.held[dst] = Held::Stream {
                level: level as u8,
                at: at as u32,
            };
            arena.cursors[level] = at + 1;
        }
    }

    fn op(&mut self, op: &Op, arena: &mut Arena) {
        match *op {
            Op::Loop {
                var,
                start,
                end,
                step,
                ref body,
            } => {
                let mut v = start;
                while v < end {
                    let slot = &mut arena.slots[var as usize];
                    slot.clear();
                    slot.push(v as f64);
                    arena.held[var as usize] = Held::Own;
                    for s in body {
                        self.step(s, arena);
                    }
                    v += step;
                }
            }
            Op::LoopDyn { level, ref body } => {
                for _ in 0..self.cursor.trips(level as usize) {
                    for s in body {
                        self.step(s, arena);
                    }
                }
            }
            _ => self.tile_op(op, arena),
        }
    }

    fn tile_op(&mut self, op: &Op, arena: &mut Arena) {
        let Arena {
            slots,
            held,
            streams,
            scratch,
            rows,
            ..
        } = arena;
        let Some(dst) = op.dst() else {
            // A store or atomic add: the only op that writes no slot.
            if let Op::WriteRows { site, lanes, val } = *op {
                let tiles = Tiles {
                    slots,
                    held,
                    streams,
                };
                let info = &self.ctx.program.sites[site as usize];
                let decoded = self.next(site, lanes, rows);
                let round = self.ctx.program.params.dtypes[info.param] == DType::F16;
                let val = val.tile(tiles.data(val.slot));
                let lanes = match direct_lanes(val, lanes.as_slice()) {
                    Some(direct) => direct,
                    None => {
                        stage_value(&val, lanes.as_slice(), scratch);
                        scratch
                    }
                };
                scatter(
                    self.args,
                    &mut self.log,
                    info,
                    round,
                    &decoded.run(rows),
                    lanes,
                );
            }
            return;
        };
        // The destination's own buffer, out of the table while the op
        // writes it; an operand that reads the destination's own tile
        // reads a copy of it.
        let d = dst as usize;
        let mut out = std::mem::take(&mut slots[d]);
        let own = held[d] == Held::Own;
        let in_place = own && matches!(*op, Op::Binary { acc: true, .. });
        {
            let tiles = Tiles {
                slots,
                held,
                streams,
            };
            if own && !in_place && op.reads(dst) {
                scratch.clear();
                scratch.extend_from_slice(&out);
            }
            let scratch: &[f64] = scratch;
            let tile = |l: Loc| {
                l.tile(if l.slot == dst && own {
                    scratch
                } else {
                    tiles.data(l.slot)
                })
            };
            match *op {
                Op::Pid { axis, .. } => {
                    out.clear();
                    out.push(self.pid[axis] as f64);
                }
                Op::Fill { len, value, .. } => {
                    out.clear();
                    out.resize(len, value);
                }
                Op::Arange { len, .. } => {
                    out.clear();
                    out.extend((0..len).map(|i| i as f64));
                }
                Op::Binary { op, a, b, .. } => {
                    if in_place {
                        // The accumulator `acc = acc <op> v`.
                        assign_into(self.ctx.elementwise, op, &mut out, &tile(b));
                    } else {
                        binary_into(self.ctx.elementwise, op, &tile(a), &tile(b), &mut out);
                    }
                }
                Op::Dot {
                    a,
                    b,
                    regs: (ra, rb),
                    ..
                } => {
                    let tally = &mut self.tally;
                    if self
                        .ctx
                        .program
                        .dot_sources
                        .eligible(ra, rb, self.ctx.nonfinite)
                    {
                        let (_, exact) = exact_dot_into(self.ctx.isa, &tile(a), &tile(b), &mut out);
                        if exact {
                            tally.exact_dots += 1;
                        } else {
                            tally.canonical_dots += 1;
                        }
                    } else {
                        canonical_dot_into(self.ctx.elementwise, &tile(a), &tile(b), &mut out);
                        tally.canonical_dots += 1;
                    }
                }
                Op::Sum { src, axis, .. } => {
                    sum_axis_into(tile(src), axis, &mut out);
                }
                Op::Pack { src, .. } => {
                    out.clear();
                    tile(src).walk(|v| out.push(v));
                }
                Op::GatherRows {
                    site, lanes, other, ..
                } => {
                    let param = self.ctx.program.sites[site as usize].param;
                    let decoded = self.next(site, lanes, rows);
                    let data = self.args.data(param);
                    gather(self.ctx.isa, data, &decoded.run(rows), other, &mut out);
                }
                Op::WriteRows { .. } | Op::Loop { .. } | Op::LoopDyn { .. } => {}
            }
        }
        slots[d] = out;
        held[d] = Held::Own;
    }

    /// Decode the next script entry of `site` into `rows`, counted as the
    /// recording launch ran it.
    fn next(&mut self, site: u32, lanes: Shape4, rows: &mut RowScratch) -> Scripted {
        let level = self.ctx.program.sites[site as usize].level as usize;
        let entry = self.cursor.next(level);
        if self.ctx.count_sites {
            match entry.form {
                Form::Rows => self.tally.row_run_sites += 1,
                _ => self.tally.generic_sites += u64::from(lanes.as_slice().len() >= 2),
            }
        }
        decode(entry, lanes, rows)
    }
}

impl Op {
    /// The slot this op writes.
    fn dst(&self) -> Option<u32> {
        match *self {
            Op::Pid { dst, .. }
            | Op::Fill { dst, .. }
            | Op::Arange { dst, .. }
            | Op::Binary { dst, .. }
            | Op::Dot { dst, .. }
            | Op::Sum { dst, .. }
            | Op::Pack { dst, .. }
            | Op::GatherRows { dst, .. } => Some(dst),
            Op::WriteRows { .. } | Op::Loop { .. } | Op::LoopDyn { .. } => None,
        }
    }

    /// Whether some operand of this op is in slot `slot`.
    fn reads(&self, slot: u32) -> bool {
        match *self {
            Op::Binary { a, b, .. } | Op::Dot { a, b, .. } => a.slot == slot || b.slot == slot,
            Op::Sum { src, .. } | Op::Pack { src, .. } => src.slot == slot,
            Op::WriteRows { val, .. } => val.slot == slot,
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------
// Listing
// ---------------------------------------------------------------------

impl Tape {
    /// One line per op: when it runs, the slot it writes, its kind, the
    /// slots and tile shapes it reads, its site, parameter and stream.
    pub(crate) fn listing(&self, program: &Program) -> String {
        let mut s = String::new();
        list(&self.steps, program, 0, &mut s);
        s
    }
}

fn list(steps: &[Step], program: &Program, depth: usize, s: &mut String) {
    let reads = |locs: &[Loc]| {
        let each: Vec<String> = locs
            .iter()
            .map(|l| format!("s{} {:?}", l.slot, l.shape()))
            .collect();
        each.join(", ")
    };
    let site = |id: u32| {
        let info = &program.sites[id as usize];
        let kind = if info.is_atomic { "atomic" } else { "site" };
        let name = &program.param_names[info.param];
        format!("{kind} {id} ({name}, stream {})", info.level)
    };
    for Step { when, op } in steps {
        let line = match *op {
            Op::Pid { axis, .. } => format!("program_id({axis})"),
            Op::Fill { len, value, .. } => format!("fill {value} x {len}"),
            Op::Arange { len, .. } => format!("arange {len}"),
            Op::Binary { op, a, b, .. } => format!("{op:?} {}", reads(&[a, b])),
            Op::Dot { a, b, .. } => format!("dot {}", reads(&[a, b])),
            Op::Sum { src, axis, .. } => format!("sum axis {axis} {}", reads(&[src])),
            Op::Pack { src, .. } => format!("pack {}", reads(&[src])),
            Op::GatherRows {
                site: id, lanes, ..
            } => {
                format!("gather {} {:?}", site(id), lanes.as_slice())
            }
            Op::WriteRows { site: id, val, .. } => {
                format!("write {} <- {}", site(id), reads(&[val]))
            }
            Op::Loop {
                var,
                start,
                end,
                step,
                ..
            } => format!("loop s{var} in {start}..{end} step {step}"),
            Op::LoopDyn { level, .. } => format!("loop, trip count from stream {level}"),
        };
        let dst = op.dst().map_or(String::new(), |d| format!("s{d} = "));
        let _ = writeln!(s, "{:indent$}{when:?}: {dst}{line}", "", indent = 2 * depth);
        if let Op::Loop { ref body, .. } | Op::LoopDyn { ref body, .. } = *op {
            list(body, program, depth + 1, s);
        }
    }
}
