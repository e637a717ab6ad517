//! Snapshot codec for compiled [`Program`]s.
//!
//! The encoding persists exactly the fields that are *expensive* to
//! reproduce — the lowered units (with fusion, caching levels, and
//! liveness release lists), the per-site address-stream classification,
//! and the derived capability flags. Everything else (names, grid
//! dimensions, the parameter table, the per-register dot-operand
//! provenance, the separable-site annotations) is recomputed
//! deterministically from the kernel and launch shape the caller already
//! holds as the cache key, so a decoded program is field-for-field
//! identical to one produced by [`Program::compile`] — without running
//! the lowering pipeline. The release lists are on the wire but are
//! recomputed too: they depend on the separable-site annotations, which
//! files written before PR 13 know nothing of.
//!
//! Decoding is defensive: registers, parameter indices, and site ids
//! are range-checked, sequence lengths go through the allocation guard,
//! and loop nesting is depth-capped — forged-but-CRC-valid bytes
//! produce a typed [`SnapshotError`], never a panic and never a program
//! that indexes out of bounds at launch.

use crate::interp::GpuError;
use crate::program::{
    assign_release_lists, reg_use_counts, CInstr, CNode, CUnit, DotSources, ParamTable, Program,
    RowSites, SiteInfo, UnitMode,
};
use insum_kernel::{param_usage, BinOp, Kernel, Reg};
use insum_snapshot::{Reader, SnapshotError, Writer};
use insum_tensor::DType;

/// Maximum loop nesting the decoder will follow (matches the kernel
/// codec's cap; lowering never deepens nesting).
const MAX_LOOP_DEPTH: usize = 64;

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::FloorDiv => 4,
        BinOp::Mod => 5,
        BinOp::Min => 6,
        BinOp::Max => 7,
        BinOp::Lt => 8,
        BinOp::Le => 9,
        BinOp::Eq => 10,
        BinOp::Ge => 11,
        BinOp::And => 12,
    }
}

fn tag_binop(tag: u8) -> Result<BinOp, SnapshotError> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::FloorDiv,
        5 => BinOp::Mod,
        6 => BinOp::Min,
        7 => BinOp::Max,
        8 => BinOp::Lt,
        9 => BinOp::Le,
        10 => BinOp::Eq,
        11 => BinOp::Ge,
        12 => BinOp::And,
        _ => {
            return Err(SnapshotError::Corrupt {
                context: "program binary-op tag",
            })
        }
    })
}

fn write_mask(w: &mut Writer, mask: &Option<Reg>) {
    match mask {
        Some(r) => {
            w.u8(1);
            w.usize(*r);
        }
        None => w.u8(0),
    }
}

fn write_shape(w: &mut Writer, shape: &[usize]) {
    w.usize(shape.len());
    for &d in shape {
        w.usize(d);
    }
}

fn write_cinstr(w: &mut Writer, instr: &CInstr) {
    match instr {
        CInstr::ProgramId { dst, axis } => {
            w.u8(1);
            w.usize(*dst);
            w.usize(*axis);
        }
        CInstr::Const { dst, value } => {
            w.u8(2);
            w.usize(*dst);
            w.f64_bits(*value);
        }
        CInstr::Arange { dst, len } => {
            w.u8(3);
            w.usize(*dst);
            w.usize(*len);
        }
        CInstr::Full { dst, shape, value } => {
            w.u8(4);
            w.usize(*dst);
            write_shape(w, shape);
            w.f64_bits(*value);
        }
        CInstr::Binary { dst, op, a, b } => {
            w.u8(5);
            w.usize(*dst);
            w.u8(binop_tag(*op));
            w.usize(*a);
            w.usize(*b);
        }
        CInstr::FusedBinary {
            dst,
            op1,
            a,
            b,
            op2,
            c,
            swapped,
        } => {
            w.u8(6);
            w.usize(*dst);
            w.u8(binop_tag(*op1));
            w.usize(*a);
            w.usize(*b);
            w.u8(binop_tag(*op2));
            w.usize(*c);
            w.bool(*swapped);
        }
        CInstr::ExpandDims { dst, src, axis } => {
            w.u8(7);
            w.usize(*dst);
            w.usize(*src);
            w.usize(*axis);
        }
        CInstr::Broadcast { dst, src, shape } => {
            w.u8(8);
            w.usize(*dst);
            w.usize(*src);
            write_shape(w, shape);
        }
        CInstr::View { dst, src, shape } => {
            w.u8(9);
            w.usize(*dst);
            w.usize(*src);
            write_shape(w, shape);
        }
        CInstr::Trans { dst, src } => {
            w.u8(10);
            w.usize(*dst);
            w.usize(*src);
        }
        CInstr::Load {
            dst,
            param,
            offset,
            mask,
            other,
            site,
        } => {
            w.u8(11);
            w.usize(*dst);
            w.usize(*param);
            w.usize(*offset);
            write_mask(w, mask);
            w.f64_bits(*other);
            w.u32(*site);
        }
        CInstr::Store {
            param,
            offset,
            value,
            mask,
            site,
        } => {
            w.u8(12);
            w.usize(*param);
            w.usize(*offset);
            w.usize(*value);
            write_mask(w, mask);
            w.u32(*site);
        }
        CInstr::AtomicAdd {
            param,
            offset,
            value,
            mask,
            site,
        } => {
            w.u8(13);
            w.usize(*param);
            w.usize(*offset);
            w.usize(*value);
            write_mask(w, mask);
            w.u32(*site);
        }
        CInstr::Dot { dst, a, b } => {
            w.u8(14);
            w.usize(*dst);
            w.usize(*a);
            w.usize(*b);
        }
        CInstr::Sum { dst, src, axis } => {
            w.u8(15);
            w.usize(*dst);
            w.usize(*src);
            w.usize(*axis);
        }
        CInstr::Loop {
            var,
            start,
            end,
            step,
            body,
        } => {
            w.u8(16);
            w.usize(*var);
            w.i64(*start);
            w.i64(*end);
            w.i64(*step);
            write_cnodes(w, body);
        }
        CInstr::LoopDyn {
            var,
            start,
            end,
            body,
        } => {
            w.u8(17);
            w.usize(*var);
            w.usize(*start);
            w.usize(*end);
            write_cnodes(w, body);
        }
    }
}

fn write_cnodes(w: &mut Writer, body: &[CNode]) {
    w.usize(body.len());
    for node in body {
        match node.cached {
            Some(lvl) => {
                w.u8(1);
                w.u8(lvl);
            }
            None => w.u8(0),
        }
        write_cinstr(w, &node.instr);
    }
}

struct Bounds {
    num_regs: usize,
    num_params: usize,
    num_sites: usize,
}

fn read_reg(r: &mut Reader<'_>, bounds: &Bounds) -> Result<Reg, SnapshotError> {
    let reg = r.usize("program register")?;
    if reg >= bounds.num_regs {
        return Err(SnapshotError::Invalid {
            context: format!(
                "program register {reg} out of range ({} declared)",
                bounds.num_regs
            ),
        });
    }
    Ok(reg)
}

fn read_param(r: &mut Reader<'_>, bounds: &Bounds) -> Result<usize, SnapshotError> {
    let param = r.usize("program parameter")?;
    if param >= bounds.num_params {
        return Err(SnapshotError::Invalid {
            context: format!(
                "program parameter {param} out of range ({} declared)",
                bounds.num_params
            ),
        });
    }
    Ok(param)
}

fn read_site(r: &mut Reader<'_>, bounds: &Bounds) -> Result<u32, SnapshotError> {
    let site = r.u32("program site id")?;
    if (site as usize) >= bounds.num_sites {
        return Err(SnapshotError::Invalid {
            context: format!("site id {site} out of range ({} sites)", bounds.num_sites),
        });
    }
    Ok(site)
}

fn read_mask(r: &mut Reader<'_>, bounds: &Bounds) -> Result<Option<Reg>, SnapshotError> {
    if r.bool("program mask presence")? {
        Ok(Some(read_reg(r, bounds)?))
    } else {
        Ok(None)
    }
}

fn read_shape(r: &mut Reader<'_>) -> Result<Vec<usize>, SnapshotError> {
    let n = r.seq_len(8, "program shape length")?;
    let mut shape = Vec::with_capacity(n);
    for _ in 0..n {
        shape.push(r.usize("program shape dim")?);
    }
    Ok(shape)
}

fn read_cinstr(r: &mut Reader<'_>, bounds: &Bounds, depth: usize) -> Result<CInstr, SnapshotError> {
    Ok(match r.u8("program instruction tag")? {
        1 => CInstr::ProgramId {
            dst: read_reg(r, bounds)?,
            axis: r.usize("program_id axis")?,
        },
        2 => CInstr::Const {
            dst: read_reg(r, bounds)?,
            value: r.f64_bits("const value")?,
        },
        3 => CInstr::Arange {
            dst: read_reg(r, bounds)?,
            len: r.usize("arange len")?,
        },
        4 => CInstr::Full {
            dst: read_reg(r, bounds)?,
            shape: read_shape(r)?,
            value: r.f64_bits("full value")?,
        },
        5 => CInstr::Binary {
            dst: read_reg(r, bounds)?,
            op: tag_binop(r.u8("binary op")?)?,
            a: read_reg(r, bounds)?,
            b: read_reg(r, bounds)?,
        },
        6 => CInstr::FusedBinary {
            dst: read_reg(r, bounds)?,
            op1: tag_binop(r.u8("fused op1")?)?,
            a: read_reg(r, bounds)?,
            b: read_reg(r, bounds)?,
            op2: tag_binop(r.u8("fused op2")?)?,
            c: read_reg(r, bounds)?,
            swapped: r.bool("fused swapped")?,
        },
        7 => CInstr::ExpandDims {
            dst: read_reg(r, bounds)?,
            src: read_reg(r, bounds)?,
            axis: r.usize("expand axis")?,
        },
        8 => CInstr::Broadcast {
            dst: read_reg(r, bounds)?,
            src: read_reg(r, bounds)?,
            shape: read_shape(r)?,
        },
        9 => CInstr::View {
            dst: read_reg(r, bounds)?,
            src: read_reg(r, bounds)?,
            shape: read_shape(r)?,
        },
        10 => CInstr::Trans {
            dst: read_reg(r, bounds)?,
            src: read_reg(r, bounds)?,
        },
        11 => CInstr::Load {
            dst: read_reg(r, bounds)?,
            param: read_param(r, bounds)?,
            offset: read_reg(r, bounds)?,
            mask: read_mask(r, bounds)?,
            other: r.f64_bits("load other")?,
            site: read_site(r, bounds)?,
        },
        12 => CInstr::Store {
            param: read_param(r, bounds)?,
            offset: read_reg(r, bounds)?,
            value: read_reg(r, bounds)?,
            mask: read_mask(r, bounds)?,
            site: read_site(r, bounds)?,
        },
        13 => CInstr::AtomicAdd {
            param: read_param(r, bounds)?,
            offset: read_reg(r, bounds)?,
            value: read_reg(r, bounds)?,
            mask: read_mask(r, bounds)?,
            site: read_site(r, bounds)?,
        },
        14 => CInstr::Dot {
            dst: read_reg(r, bounds)?,
            a: read_reg(r, bounds)?,
            b: read_reg(r, bounds)?,
        },
        15 => CInstr::Sum {
            dst: read_reg(r, bounds)?,
            src: read_reg(r, bounds)?,
            axis: r.usize("sum axis")?,
        },
        16 => CInstr::Loop {
            var: read_reg(r, bounds)?,
            start: r.i64("loop start")?,
            end: r.i64("loop end")?,
            step: r.i64("loop step")?,
            body: read_cnodes(r, bounds, depth + 1)?,
        },
        17 => CInstr::LoopDyn {
            var: read_reg(r, bounds)?,
            start: read_reg(r, bounds)?,
            end: read_reg(r, bounds)?,
            body: read_cnodes(r, bounds, depth + 1)?,
        },
        _ => {
            return Err(SnapshotError::Corrupt {
                context: "program instruction tag",
            })
        }
    })
}

fn read_cnodes(
    r: &mut Reader<'_>,
    bounds: &Bounds,
    depth: usize,
) -> Result<Vec<CNode>, SnapshotError> {
    if depth > MAX_LOOP_DEPTH {
        return Err(SnapshotError::Invalid {
            context: format!("program loop nesting exceeds {MAX_LOOP_DEPTH}"),
        });
    }
    let n = r.seq_len(2, "program body length")?;
    let mut body = Vec::with_capacity(n);
    for _ in 0..n {
        let cached = if r.bool("cached presence")? {
            Some(r.u8("cached level")?)
        } else {
            None
        };
        let instr = read_cinstr(r, bounds, depth)?;
        body.push(CNode { cached, instr });
    }
    Ok(body)
}

impl Program {
    /// Append this program's snapshot encoding to `w`. The caller is
    /// expected to store the kernel and launch shape alongside (they
    /// are the cache key); only lowering products are encoded here.
    pub fn encode_snapshot(&self, w: &mut Writer) {
        w.usize(self.num_regs);
        w.bool(self.dedup_ok);
        w.bool(self.dot_f16);
        w.bool(self.parallel_execute_ok);
        w.usize(self.sites.len());
        for s in &self.sites {
            w.usize(s.param);
            w.bool(s.is_atomic);
            w.bool(s.is_write);
            w.f64_bits(s.coeff);
            w.bool(s.traced);
        }
        w.usize(self.level2_regs.len());
        for &reg in &self.level2_regs {
            w.usize(reg);
        }
        w.usize(self.units.len());
        for unit in &self.units {
            w.u8(match unit.mode {
                UnitMode::Once => 0,
                UnitMode::PerRow => 1,
                UnitMode::PerInstance => 2,
            });
            w.usize(unit.release.len());
            for &reg in &unit.release {
                w.usize(reg);
            }
            write_cinstr(w, &unit.instr);
        }
    }

    /// Decode a program previously written by
    /// [`Program::encode_snapshot`], recomputing every kernel- and
    /// shape-derived field from the given key. No lowering runs.
    ///
    /// # Errors
    ///
    /// Typed [`SnapshotError`] on any damaged or forged encoding
    /// (truncation, unknown tags, out-of-range indices, bad grid or
    /// parameter counts) — never a panic.
    pub fn decode_snapshot(
        kernel: &Kernel,
        grid: &[usize],
        lens: &[usize],
        dtypes: &[DType],
        r: &mut Reader<'_>,
    ) -> Result<Program, SnapshotError> {
        let invalid = |e: GpuError| SnapshotError::Invalid {
            context: format!("program key: {e}"),
        };
        if lens.len() != kernel.params.len() || dtypes.len() != kernel.params.len() {
            return Err(invalid(GpuError::ParamCountMismatch {
                expected: kernel.params.len(),
                actual: lens.len(),
            }));
        }
        if grid.is_empty() || grid.len() > 3 || grid.contains(&0) {
            return Err(invalid(GpuError::BadGrid(grid.to_vec())));
        }
        let mut gdims = [1usize; 3];
        gdims[..grid.len()].copy_from_slice(grid);
        let instances = gdims[0] * gdims[1] * gdims[2];

        let num_regs = r.usize("program num_regs")?;
        if num_regs != kernel.num_regs {
            return Err(SnapshotError::Invalid {
                context: format!(
                    "program num_regs {num_regs} disagrees with kernel ({})",
                    kernel.num_regs
                ),
            });
        }
        let dedup_ok = r.bool("program dedup_ok")?;
        let dot_f16 = r.bool("program dot_f16")?;
        let parallel_execute_ok = r.bool("program parallel_execute_ok")?;

        let n_sites = r.seq_len(12, "site count")?;
        let mut sites = Vec::with_capacity(n_sites);
        for _ in 0..n_sites {
            let param = r.usize("site param")?;
            if param >= lens.len() {
                return Err(SnapshotError::Invalid {
                    context: format!("site param {param} out of range ({})", lens.len()),
                });
            }
            sites.push(SiteInfo {
                param,
                is_atomic: r.bool("site is_atomic")?,
                is_write: r.bool("site is_write")?,
                coeff: r.f64_bits("site coeff")?,
                traced: r.bool("site traced")?,
            });
        }

        let bounds = Bounds {
            num_regs,
            num_params: lens.len(),
            num_sites: sites.len(),
        };

        let n_l2 = r.seq_len(8, "level2 reg count")?;
        let mut level2_regs = Vec::with_capacity(n_l2);
        for _ in 0..n_l2 {
            level2_regs.push(read_reg(r, &bounds)?);
        }

        let n_units = r.seq_len(2, "unit count")?;
        let mut units = Vec::with_capacity(n_units);
        for _ in 0..n_units {
            let mode = match r.u8("unit mode")? {
                0 => UnitMode::Once,
                1 => UnitMode::PerRow,
                2 => UnitMode::PerInstance,
                _ => {
                    return Err(SnapshotError::Corrupt {
                        context: "unit mode tag",
                    })
                }
            };
            let n_rel = r.seq_len(8, "release count")?;
            let mut release = Vec::with_capacity(n_rel);
            for _ in 0..n_rel {
                release.push(read_reg(r, &bounds)?);
            }
            let instr = read_cinstr(r, &bounds, 0)?;
            units.push(CUnit {
                mode,
                instr,
                release,
            });
        }

        // Kernel-derived annotations are not on the wire: recompute them,
        // and with them the release lists — a separable site reads the
        // leaves of its offset tree, so a snapshot written before that
        // analysis existed would release them too early.
        let row_sites = RowSites::analyze(kernel, &reg_use_counts(kernel));
        assign_release_lists(&mut units, &level2_regs, num_regs, &row_sites);

        Ok(Program {
            name: kernel.name.clone(),
            param_names: kernel.params.iter().map(|p| p.name.clone()).collect(),
            num_regs,
            grid: grid.to_vec(),
            gdims,
            instances,
            units,
            level2_regs,
            sites,
            dedup_ok,
            params: ParamTable::new(lens, dtypes),
            dot_sources: DotSources::analyze(kernel, &param_usage(kernel).written),
            row_sites,
            dot_f16,
            parallel_execute_ok,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insum_kernel::KernelBuilder;
    use insum_tensor::Tensor;

    // A small kernel exercising loads, stores, arithmetic, and a loop —
    // enough to cover fusion and site classification in the encoding.
    fn sample() -> (Kernel, Vec<usize>, Vec<usize>, Vec<DType>) {
        let mut b = KernelBuilder::new("persist_sample");
        let a = b.input("A");
        let c = b.output("C");
        let pid = b.program_id(0);
        let lanes = b.arange(16);
        let sixteen = b.constant(16.0);
        let base = b.binary(BinOp::Mul, pid, sixteen);
        let offs = b.binary(BinOp::Add, base, lanes);
        let x = b.load(a, offs, None, 0.0);
        let y = b.binary(BinOp::Add, x, x);
        let z = b.binary(BinOp::Mul, y, x);
        b.store(c, offs, z, None);
        let kernel = b.build();
        (kernel, vec![4], vec![64, 64], vec![DType::F32, DType::F32])
    }

    #[test]
    fn decode_matches_fresh_compile_bit_for_bit() {
        let (kernel, grid, lens, dtypes) = sample();
        let compiled = Program::compile(&kernel, &grid, &lens, &dtypes).unwrap();
        let mut w = Writer::new();
        compiled.encode_snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = Program::decode_snapshot(&kernel, &grid, &lens, &dtypes, &mut r).unwrap();
        assert!(r.is_exhausted());

        // Re-encoding the decoded program must reproduce the bytes —
        // structural identity without a derived PartialEq.
        let mut w2 = Writer::new();
        decoded.encode_snapshot(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);

        // And launching it must produce bit-identical results.
        let device = crate::DeviceModel::rtx3090();
        let input = Tensor::from_fn(vec![64], |i| (i[0] as f32) * 0.25 - 3.0);
        let mut in_a = input.clone();
        let mut out_a = Tensor::zeros(vec![64]);
        compiled
            .launch(&mut [&mut in_a, &mut out_a], &device, crate::Mode::Execute)
            .unwrap();
        let mut in_b = input.clone();
        let mut out_b = Tensor::zeros(vec![64]);
        decoded
            .launch(&mut [&mut in_b, &mut out_b], &device, crate::Mode::Execute)
            .unwrap();
        assert_eq!(out_a, out_b);
        let bits_a: Vec<u32> = out_a.data().iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u32> = out_b.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b);
    }

    /// A snapshot written before separable-site recognition existed has
    /// release lists that free an offset term right after the add that
    /// consumed it. Decoding recomputes the kernel-derived annotations
    /// and the lists with them, so such a file loads into the program a
    /// fresh compile produces.
    #[test]
    fn snapshot_without_site_liveness_decodes_to_fresh_compile() {
        // `OUT[i, j] = SRC[i, j] + i · j` over one `[8, 16]` tile, with
        // block arithmetic between the offset add and the accesses so a
        // term released early would have its buffer recycled.
        let (n, m) = (8usize, 16usize);
        let mut b = KernelBuilder::new("persist_rows");
        let src = b.input("SRC");
        let out = b.output("OUT");
        let pid = b.program_id(0);
        let rows = b.arange(n);
        let width = b.constant(m as f64);
        let tile = b.binary(BinOp::Mul, pid, width);
        let row_base = b.binary(BinOp::Mul, rows, width);
        let cols = b.arange(m);
        let cols = b.binary(BinOp::Add, cols, tile);
        let offsets = |b: &mut KernelBuilder| {
            let r = b.expand_dims(row_base, 1);
            let c = b.expand_dims(cols, 0);
            b.binary(BinOp::Add, r, c)
        };
        let off_l = offsets(&mut b);
        let off_s = offsets(&mut b);
        let r = b.expand_dims(rows, 1);
        let c = b.expand_dims(cols, 0);
        let z = b.binary(BinOp::Mul, r, c);
        let v = b.load(src, off_l, None, 0.0);
        let sum = b.binary(BinOp::Add, v, z);
        b.store(out, off_s, sum, None);
        let kernel = b.build();
        let (grid, lens, dtypes) = (vec![1], vec![n * m, n * m], vec![DType::F32; 2]);

        let compiled = Program::compile(&kernel, &grid, &lens, &dtypes).unwrap();
        assert_eq!(compiled.separable_sites(), (2, 2));
        let mut stale = Program::compile(&kernel, &grid, &lens, &dtypes).unwrap();
        assign_release_lists(
            &mut stale.units,
            &stale.level2_regs,
            stale.num_regs,
            &RowSites::none(stale.num_regs),
        );
        let encode = |p: &Program| {
            let mut w = Writer::new();
            p.encode_snapshot(&mut w);
            w.into_bytes()
        };
        let (fresh_bytes, stale_bytes) = (encode(&compiled), encode(&stale));
        assert_ne!(fresh_bytes, stale_bytes, "the stale lists must differ");

        let mut r = Reader::new(&stale_bytes);
        let decoded = Program::decode_snapshot(&kernel, &grid, &lens, &dtypes, &mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(encode(&decoded), fresh_bytes);

        let device = crate::DeviceModel::rtx3090();
        let input = Tensor::from_fn(vec![n * m], |i| (i[0] % 23) as f32 * 0.5 - 4.0);
        let run = |p: &Program| {
            let (mut s, mut o) = (input.clone(), Tensor::zeros(vec![n * m]));
            let report = p
                .launch(&mut [&mut s, &mut o], &device, crate::Mode::Execute)
                .unwrap();
            (report, o)
        };
        let (want_report, want_out) = run(&compiled);
        let (got_report, got_out) = run(&decoded);
        assert_eq!(got_report, want_report);
        assert!(got_out.bit_eq(&want_out));
    }

    #[test]
    fn truncations_and_garbage_are_typed() {
        let (kernel, grid, lens, dtypes) = sample();
        let compiled = Program::compile(&kernel, &grid, &lens, &dtypes).unwrap();
        let mut w = Writer::new();
        compiled.encode_snapshot(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let res = Program::decode_snapshot(&kernel, &grid, &lens, &dtypes, &mut r);
            // Prefixes must fail or (if a prefix happens to decode) be
            // detected by the caller's exhaustion check.
            if res.is_ok() {
                assert!(!r.is_exhausted() || cut == bytes.len());
            }
        }
    }

    #[test]
    fn key_mismatches_are_rejected() {
        let (kernel, grid, lens, dtypes) = sample();
        let compiled = Program::compile(&kernel, &grid, &lens, &dtypes).unwrap();
        let mut w = Writer::new();
        compiled.encode_snapshot(&mut w);
        let bytes = w.into_bytes();

        // Wrong parameter count.
        let mut r = Reader::new(&bytes);
        assert!(
            Program::decode_snapshot(&kernel, &grid, &lens[..1], &dtypes[..1], &mut r).is_err()
        );
        // Bad grid.
        let mut r = Reader::new(&bytes);
        assert!(Program::decode_snapshot(&kernel, &[], &lens, &dtypes, &mut r).is_err());
        // Kernel with a different register count.
        let mut small = kernel.clone();
        small.num_regs += 1;
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            Program::decode_snapshot(&small, &grid, &lens, &dtypes, &mut r),
            Err(SnapshotError::Invalid { .. })
        ));
    }
}
