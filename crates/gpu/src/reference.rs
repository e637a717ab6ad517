//! The original (pre-optimization) interpreter, kept verbatim as a
//! correctness oracle and performance baseline.
//!
//! This module is the seed implementation of the simulator: materialized
//! `Vec<f64>` blocks, per-sector `HashSet` DRAM tracking, a `HashMap`
//! atomic ledger, and a strictly sequential grid loop. The optimized
//! interpreter behind [`crate::launch`] must produce **bit-identical**
//! [`KernelStats`], timing, and output tensors; the equivalence tests in
//! `tests/simulator_properties.rs` and the `simbench` harness in
//! `insum_bench` compare against this module. It is `#[doc(hidden)]`
//! because it is an internal yardstick, not API.

use crate::device::DeviceModel;
use crate::interp::GpuError;
use crate::stats::{combine_times, KernelReport, KernelStats};
use insum_kernel::{BinOp, Instr, Kernel, Reg};
use insum_tensor::{DType, Tensor};
use std::collections::{HashMap, HashSet};

pub use crate::interp::Mode;

/// Materialized row-major block value (the seed representation).
/// Public so the kernel equivalence tests can call the seed
/// [`RefBlock::dot`] directly.
#[derive(Debug, Clone, PartialEq)]
pub struct RefBlock {
    pub shape: Vec<usize>,
    pub data: Vec<f64>,
}

impl RefBlock {
    fn scalar(value: f64) -> RefBlock {
        RefBlock {
            shape: vec![],
            data: vec![value],
        }
    }

    fn full(shape: Vec<usize>, value: f64) -> RefBlock {
        let n = shape.iter().product();
        RefBlock {
            shape,
            data: vec![value; n],
        }
    }

    fn iota(len: usize) -> RefBlock {
        RefBlock {
            shape: vec![len],
            data: (0..len).map(|i| i as f64).collect(),
        }
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn expand_dims(&self, axis: usize) -> RefBlock {
        assert!(axis <= self.shape.len(), "expand_dims axis out of range");
        let mut shape = self.shape.clone();
        shape.insert(axis, 1);
        RefBlock {
            shape,
            data: self.data.clone(),
        }
    }

    fn view(&self, shape: Vec<usize>) -> RefBlock {
        assert_eq!(
            shape.iter().product::<usize>(),
            self.data.len(),
            "view changes volume"
        );
        RefBlock {
            shape,
            data: self.data.clone(),
        }
    }

    fn trans(&self) -> RefBlock {
        assert_eq!(self.shape.len(), 2, "trans requires a rank-2 block");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut data = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                data[j * m + i] = self.data[i * n + j];
            }
        }
        RefBlock {
            shape: vec![n, m],
            data,
        }
    }

    fn broadcast_to(&self, shape: &[usize]) -> RefBlock {
        if self.shape == shape {
            return self.clone();
        }
        let nd = shape.len();
        assert!(nd >= self.shape.len(), "broadcast cannot reduce rank");
        let pad = nd - self.shape.len();
        let mut strides = vec![0usize; nd];
        let mut acc = 1usize;
        for d in (0..self.shape.len()).rev() {
            let dim = self.shape[d];
            let target = shape[pad + d];
            assert!(
                dim == target || dim == 1,
                "cannot broadcast {:?} to {:?}",
                self.shape,
                shape
            );
            strides[pad + d] = if dim == 1 { 0 } else { acc };
            acc *= dim;
        }
        let n: usize = shape.iter().product();
        let mut data = Vec::with_capacity(n);
        let mut idx = vec![0usize; nd];
        for _ in 0..n {
            let off: usize = idx.iter().zip(&strides).map(|(&i, &s)| i * s).sum();
            data.push(self.data[off]);
            for d in (0..nd).rev() {
                idx[d] += 1;
                if idx[d] < shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        RefBlock {
            shape: shape.to_vec(),
            data,
        }
    }

    #[allow(clippy::needless_range_loop)]
    fn joint_shape(a: &RefBlock, b: &RefBlock) -> Vec<usize> {
        let nd = a.shape.len().max(b.shape.len());
        let mut out = vec![0usize; nd];
        for i in 0..nd {
            let da = if i < nd - a.shape.len() {
                1
            } else {
                a.shape[i - (nd - a.shape.len())]
            };
            let db = if i < nd - b.shape.len() {
                1
            } else {
                b.shape[i - (nd - b.shape.len())]
            };
            assert!(
                da == db || da == 1 || db == 1,
                "incompatible block shapes {:?} / {:?}",
                a.shape,
                b.shape
            );
            out[i] = da.max(db);
        }
        out
    }

    fn binary(op: BinOp, a: &RefBlock, b: &RefBlock) -> RefBlock {
        let f = |x: f64, y: f64| -> f64 {
            match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::FloorDiv => (x / y).floor(),
                BinOp::Mod => x - (x / y).floor() * y,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                BinOp::Lt => f64::from(x < y),
                BinOp::Le => f64::from(x <= y),
                BinOp::Eq => f64::from(x == y),
                BinOp::Ge => f64::from(x >= y),
                BinOp::And => f64::from(x != 0.0 && y != 0.0),
            }
        };
        if a.shape == b.shape {
            let data = a.data.iter().zip(&b.data).map(|(&x, &y)| f(x, y)).collect();
            return RefBlock {
                shape: a.shape.clone(),
                data,
            };
        }
        if b.shape.is_empty() {
            let y = b.data[0];
            return RefBlock {
                shape: a.shape.clone(),
                data: a.data.iter().map(|&x| f(x, y)).collect(),
            };
        }
        if a.shape.is_empty() {
            let x = a.data[0];
            return RefBlock {
                shape: b.shape.clone(),
                data: b.data.iter().map(|&y| f(x, y)).collect(),
            };
        }
        let shape = RefBlock::joint_shape(a, b);
        let ab = a.broadcast_to(&shape);
        let bb = b.broadcast_to(&shape);
        let data = ab
            .data
            .iter()
            .zip(&bb.data)
            .map(|(&x, &y)| f(x, y))
            .collect();
        RefBlock { shape, data }
    }

    fn sum_axis(&self, axis: usize) -> RefBlock {
        assert!(axis < self.shape.len(), "sum axis out of range");
        let outer: usize = self.shape[..axis].iter().product();
        let mid = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut shape = self.shape.clone();
        shape.remove(axis);
        let mut data = vec![0.0; outer * inner];
        for o in 0..outer {
            for m in 0..mid {
                let src = (o * mid + m) * inner;
                let dst = o * inner;
                for i in 0..inner {
                    data[dst + i] += self.data[src + i];
                }
            }
        }
        RefBlock { shape, data }
    }

    /// The seed `tl.dot`: per output element, ascending `l`, skipping
    /// zero left factors, multiply then add.
    pub fn dot(a: &RefBlock, b: &RefBlock) -> RefBlock {
        assert_eq!(a.shape.len(), 2, "dot lhs must be rank 2");
        assert_eq!(b.shape.len(), 2, "dot rhs must be rank 2");
        let (m, k) = (a.shape[0], a.shape[1]);
        let (k2, n) = (b.shape[0], b.shape[1]);
        assert_eq!(k, k2, "dot inner dimensions disagree");
        let mut data = vec![0.0; m * n];
        for i in 0..m {
            for l in 0..k {
                let av = a.data[i * k + l];
                if av == 0.0 {
                    continue;
                }
                let brow = l * n;
                let crow = i * n;
                for j in 0..n {
                    data[crow + j] += av * b.data[brow + j];
                }
            }
        }
        RefBlock {
            shape: vec![m, n],
            data,
        }
    }
}

#[derive(Default, Clone, Copy)]
struct InstCost {
    l2_read_sectors: u64,
    l2_write_sectors: u64,
    flops_tc_f16: u64,
    flops_tc_f32: u64,
    flops_scalar: u64,
    smem_bytes: u64,
    atomics: u64,
    instructions: u64,
    dyn_iters: u64,
}

struct Machine<'a> {
    kernel: &'a Kernel,
    mode: Mode,
    dot_f16: bool,
    bases: Vec<u64>,
    esizes: Vec<u64>,
    lens: Vec<usize>,
    dtypes: Vec<DType>,
    dram_read_seen: HashSet<u64>,
    dram_write_seen: HashSet<u64>,
    atomic_counts: HashMap<u64, u64>,
    stats: KernelStats,
    inst: InstCost,
}

const SECTOR: u64 = 32;
const WARP: usize = 32;

impl Machine<'_> {
    fn record_access(
        &mut self,
        param: usize,
        offsets: &RefBlock,
        mask: Option<&RefBlock>,
        is_write: bool,
    ) -> Result<(), GpuError> {
        let base = self.bases[param];
        let esize = self.esizes[param];
        let len = self.lens[param];
        let mut sectors: Vec<u64> = Vec::with_capacity(WARP);
        let n = offsets.len();
        let mut lane = 0;
        while lane < n {
            let warp_end = (lane + WARP).min(n);
            sectors.clear();
            for l in lane..warp_end {
                let active = mask.is_none_or(|m| m.data[l] != 0.0);
                if !active {
                    continue;
                }
                let off = offsets.data[l];
                let off_i = off as i64;
                if off_i < 0 || off_i as usize >= len {
                    return Err(GpuError::OffsetOutOfBounds {
                        param: self.kernel.params[param].name.clone(),
                        offset: off_i,
                        len,
                    });
                }
                let addr = base + off_i as u64 * esize;
                sectors.push(addr / SECTOR);
            }
            sectors.sort_unstable();
            sectors.dedup();
            let uniq = sectors.len() as u64;
            if is_write {
                self.inst.l2_write_sectors += uniq;
                for &s in &sectors {
                    if self.dram_write_seen.insert(s) {
                        self.stats.dram_write_sectors += 1;
                    }
                }
            } else {
                self.inst.l2_read_sectors += uniq;
                for &s in &sectors {
                    if self.dram_read_seen.insert(s) {
                        self.stats.dram_read_sectors += 1;
                    }
                }
            }
            lane = warp_end;
        }
        Ok(())
    }

    fn reg(regs: &[Option<RefBlock>], r: Reg) -> Result<&RefBlock, GpuError> {
        regs[r].as_ref().ok_or(GpuError::UninitializedRegister(r))
    }

    fn run_body(
        &mut self,
        body: &[Instr],
        regs: &mut Vec<Option<RefBlock>>,
        pid: [usize; 3],
        args: &mut [&mut Tensor],
    ) -> Result<(), GpuError> {
        for instr in body {
            self.inst.instructions += 1;
            match instr {
                Instr::ProgramId { dst, axis } => {
                    regs[*dst] = Some(RefBlock::scalar(pid[*axis] as f64));
                }
                Instr::Const { dst, value } => {
                    regs[*dst] = Some(RefBlock::scalar(*value));
                }
                Instr::Arange { dst, len } => {
                    regs[*dst] = Some(RefBlock::iota(*len));
                }
                Instr::Full { dst, shape, value } => {
                    regs[*dst] = Some(RefBlock::full(shape.clone(), *value));
                }
                Instr::Binary { dst, op, a, b } => {
                    let out = {
                        let av = Self::reg(regs, *a)?;
                        let bv = Self::reg(regs, *b)?;
                        RefBlock::binary(*op, av, bv)
                    };
                    self.inst.flops_scalar += out.len() as u64;
                    regs[*dst] = Some(out);
                }
                Instr::ExpandDims { dst, src, axis } => {
                    regs[*dst] = Some(Self::reg(regs, *src)?.expand_dims(*axis));
                }
                Instr::Broadcast { dst, src, shape } => {
                    let out = Self::reg(regs, *src)?.broadcast_to(shape);
                    self.inst.smem_bytes += 4 * out.len() as u64;
                    regs[*dst] = Some(out);
                }
                Instr::View { dst, src, shape } => {
                    let out = Self::reg(regs, *src)?.view(shape.clone());
                    self.inst.smem_bytes += 4 * out.len() as u64;
                    regs[*dst] = Some(out);
                }
                Instr::Trans { dst, src } => {
                    let out = Self::reg(regs, *src)?.trans();
                    self.inst.smem_bytes += 4 * out.len() as u64;
                    regs[*dst] = Some(out);
                }
                Instr::Load {
                    dst,
                    param,
                    offset,
                    mask,
                    other,
                } => {
                    let (offsets, maskb) = {
                        let off = Self::reg(regs, *offset)?;
                        match mask {
                            Some(m) => {
                                let mb = Self::reg(regs, *m)?;
                                let joint = RefBlock::joint_shape(off, mb);
                                (off.broadcast_to(&joint), Some(mb.broadcast_to(&joint)))
                            }
                            None => (off.clone(), None),
                        }
                    };
                    self.record_access(*param, &offsets, maskb.as_ref(), false)?;
                    let read_values =
                        self.mode == Mode::Execute || self.dtypes[*param] == DType::I32;
                    let data: Vec<f64> = offsets
                        .data
                        .iter()
                        .enumerate()
                        .map(|(l, &off)| {
                            let active = maskb.as_ref().is_none_or(|m| m.data[l] != 0.0);
                            if !active {
                                *other
                            } else if read_values {
                                args[*param].data()[off as usize] as f64
                            } else {
                                0.0
                            }
                        })
                        .collect();
                    regs[*dst] = Some(RefBlock {
                        shape: offsets.shape.clone(),
                        data,
                    });
                }
                Instr::Store {
                    param,
                    offset,
                    value,
                    mask,
                } => {
                    let (offsets, values, maskb) =
                        self.prepare_write(regs, *offset, *value, *mask)?;
                    self.record_access(*param, &offsets, maskb.as_ref(), true)?;
                    if self.mode == Mode::Execute {
                        let round = self.dtypes[*param] == DType::F16;
                        for (l, &off) in offsets.data.iter().enumerate() {
                            let active = maskb.as_ref().is_none_or(|m| m.data[l] != 0.0);
                            if active {
                                let mut v = values.data[l] as f32;
                                if round {
                                    v = insum_tensor::f16_round(v);
                                }
                                args[*param].data_mut()[off as usize] = v;
                            }
                        }
                    }
                }
                Instr::AtomicAdd {
                    param,
                    offset,
                    value,
                    mask,
                } => {
                    let (offsets, values, maskb) =
                        self.prepare_write(regs, *offset, *value, *mask)?;
                    self.record_access(*param, &offsets, maskb.as_ref(), true)?;
                    let base = self.bases[*param];
                    let esize = self.esizes[*param];
                    let round = self.dtypes[*param] == DType::F16;
                    for (l, &off) in offsets.data.iter().enumerate() {
                        let active = maskb.as_ref().is_none_or(|m| m.data[l] != 0.0);
                        if !active {
                            continue;
                        }
                        self.inst.atomics += 1;
                        let addr = base + off as u64 * esize;
                        *self.atomic_counts.entry(addr).or_insert(0) += 1;
                        if self.mode == Mode::Execute {
                            let slot = &mut args[*param].data_mut()[off as usize];
                            let mut v = *slot + values.data[l] as f32;
                            if round {
                                v = insum_tensor::f16_round(v);
                            }
                            *slot = v;
                        }
                    }
                }
                Instr::Dot { dst, a, b } => {
                    let (m, k, n, out) = {
                        let av = Self::reg(regs, *a)?;
                        let bv = Self::reg(regs, *b)?;
                        let (m, k) = (av.shape[0], av.shape[1]);
                        let n = bv.shape[1];
                        let out = if self.mode == Mode::Execute {
                            RefBlock::dot(av, bv)
                        } else {
                            debug_assert_eq!(bv.shape[0], k, "dot inner dims");
                            RefBlock::full(vec![m, n], 0.0)
                        };
                        (m, k, n, out)
                    };
                    let flops = 2 * (m * k * n) as u64;
                    if self.dot_f16 {
                        self.inst.flops_tc_f16 += flops;
                    } else {
                        self.inst.flops_tc_f32 += flops;
                    }
                    regs[*dst] = Some(out);
                }
                Instr::Sum { dst, src, axis } => {
                    let out = {
                        let sv = Self::reg(regs, *src)?;
                        self.inst.flops_scalar += sv.len() as u64;
                        sv.sum_axis(*axis)
                    };
                    regs[*dst] = Some(out);
                }
                Instr::Loop {
                    var,
                    start,
                    end,
                    step,
                    body,
                } => {
                    let mut v = *start;
                    while v < *end {
                        regs[*var] = Some(RefBlock::scalar(v as f64));
                        self.run_body(body, regs, pid, args)?;
                        v += *step;
                    }
                }
                Instr::LoopDyn {
                    var,
                    start,
                    end,
                    body,
                } => {
                    let lo = Self::reg(regs, *start)?.data[0] as i64;
                    let hi = Self::reg(regs, *end)?.data[0] as i64;
                    self.inst.dyn_iters += (hi - lo).max(0) as u64;
                    let mut v = lo;
                    while v < hi {
                        regs[*var] = Some(RefBlock::scalar(v as f64));
                        self.run_body(body, regs, pid, args)?;
                        v += 1;
                    }
                }
            }
        }
        Ok(())
    }

    fn prepare_write(
        &self,
        regs: &[Option<RefBlock>],
        offset: Reg,
        value: Reg,
        mask: Option<Reg>,
    ) -> Result<(RefBlock, RefBlock, Option<RefBlock>), GpuError> {
        let off = Self::reg(regs, offset)?;
        let val = Self::reg(regs, value)?;
        let mut joint = RefBlock::joint_shape(off, val);
        let maskb = match mask {
            Some(m) => {
                let mb = Self::reg(regs, m)?;
                joint = RefBlock::joint_shape(&RefBlock::full(joint.clone(), 0.0), mb);
                Some(mb.broadcast_to(&joint))
            }
            None => None,
        };
        Ok((off.broadcast_to(&joint), val.broadcast_to(&joint), maskb))
    }
}

/// Launch a kernel on the seed (unoptimized) interpreter.
///
/// Semantics are identical to [`crate::launch`]; see the module docs for
/// why this copy exists.
///
/// # Errors
///
/// Same error conditions as [`crate::launch`].
pub fn launch_reference(
    kernel: &Kernel,
    grid: &[usize],
    args: &mut [&mut Tensor],
    device: &DeviceModel,
    mode: Mode,
) -> Result<KernelReport, GpuError> {
    kernel.validate()?;
    if args.len() != kernel.params.len() {
        return Err(GpuError::ParamCountMismatch {
            expected: kernel.params.len(),
            actual: args.len(),
        });
    }
    if grid.is_empty() || grid.len() > 3 || grid.contains(&0) {
        return Err(GpuError::BadGrid(grid.to_vec()));
    }
    let mut gdims = [1usize; 3];
    gdims[..grid.len()].copy_from_slice(grid);

    let mut bases = Vec::with_capacity(args.len());
    let mut esizes = Vec::with_capacity(args.len());
    let mut cursor = 0u64;
    for t in args.iter() {
        bases.push(cursor);
        let esize = t.dtype().size_bytes() as u64;
        esizes.push(esize);
        cursor += (t.len() as u64 * esize).div_ceil(256) * 256 + 256;
    }
    let dot_f16 = {
        let floats: Vec<&&mut Tensor> = args.iter().filter(|t| t.dtype().is_float()).collect();
        !floats.is_empty() && floats.iter().all(|t| t.dtype() == DType::F16)
    };

    let instances = gdims[0] * gdims[1] * gdims[2];
    let lens: Vec<usize> = args.iter().map(|t| t.len()).collect();
    let dtypes: Vec<DType> = args.iter().map(|t| t.dtype()).collect();
    let mut machine = Machine {
        kernel,
        mode,
        dot_f16,
        bases,
        esizes,
        lens,
        dtypes,
        dram_read_seen: HashSet::new(),
        dram_write_seen: HashSet::new(),
        atomic_counts: HashMap::new(),
        stats: KernelStats::default(),
        inst: InstCost::default(),
    };

    let mut instance_times = Vec::with_capacity(instances);
    let mut regs: Vec<Option<RefBlock>> = vec![None; kernel.num_regs];
    for iz in 0..gdims[2] {
        for iy in 0..gdims[1] {
            for ix in 0..gdims[0] {
                machine.inst = InstCost::default();
                regs.iter_mut().for_each(|r| *r = None);
                machine.run_body(&kernel.body, &mut regs, [ix, iy, iz], args)?;
                let c = machine.inst;
                machine.stats.l2_read_sectors += c.l2_read_sectors;
                machine.stats.l2_write_sectors += c.l2_write_sectors;
                machine.stats.flops_tc_f16 += c.flops_tc_f16;
                machine.stats.flops_tc_f32 += c.flops_tc_f32;
                machine.stats.flops_scalar += c.flops_scalar;
                machine.stats.smem_bytes += c.smem_bytes;
                machine.stats.atomics += c.atomics;
                machine.stats.instructions += c.instructions;
                let mem = 32.0 * (c.l2_read_sectors + c.l2_write_sectors) as f64
                    / device.per_sm(device.l2_bw);
                let compute = c.flops_tc_f16 as f64 / device.per_sm(device.tc_f16_flops)
                    + c.flops_tc_f32 as f64 / device.per_sm(device.tc_f32_flops)
                    + c.flops_scalar as f64 / device.per_sm(device.alu_flops)
                    + c.smem_bytes as f64 / device.per_sm(device.smem_bw);
                let t = device.instr_issue * c.instructions as f64
                    + device.dyn_loop_stall * c.dyn_iters as f64
                    + mem.max(compute);
                instance_times.push(t);
            }
        }
    }

    machine.stats.instances = instances as u64;
    let conflicts: u64 = machine.atomic_counts.values().map(|&c| c - 1).sum();
    machine.stats.atomic_conflicts = conflicts;
    let max_chain: u64 = machine
        .atomic_counts
        .values()
        .map(|&c| c - 1)
        .max()
        .unwrap_or(0);

    let dram_time = machine.stats.dram_bytes() as f64 / device.dram_bw
        + machine.stats.atomics as f64 / device.atomic_rate
        + max_chain as f64 * device.atomic_conflict_penalty;
    let (time, sm_time, dram_time) = combine_times(device, &instance_times, dram_time);
    let max_instance_time = instance_times.iter().copied().fold(0.0, f64::max);

    Ok(KernelReport {
        name: kernel.name.clone(),
        grid: grid.to_vec(),
        stats: machine.stats,
        time,
        sm_time,
        dram_time,
        max_instance_time,
    })
}
