//! Dedicated execution targets for recognized einsum patterns.
//!
//! The general interpreter ([`crate::launch`]) executes a lowered kernel
//! IR instruction by instruction; that generality is exactly what makes
//! it expensive on the host. For the canonical contraction shapes that
//! [`insum_pattern`] recognizes and marks [`Pattern::is_fast`], this
//! module provides two far cheaper targets that preserve the simulator's
//! contract (bit-exact values, deterministic [`KernelStats`]):
//!
//! * **Zero-copy stride transforms** — transpose (any permutation,
//!   identity included) and diagonal extraction become
//!   [`Tensor::permute_view`] / [`Tensor::diagonal_view`]: no kernel, no
//!   launch overhead, no bytes moved, `deep_copy_count()` unchanged. The
//!   fused general pipeline stores the *raw input bits* for these
//!   copy-shaped statements (NaN payloads and `-0.0` survive), so a view
//!   over the same storage is bit-identical by construction.
//! * **Microkernels** — reduction, Hadamard, outer and trace run as tight
//!   host loops that reproduce the fused pipeline's accumulation
//!   semantics exactly (see below) and charge an analytic cost model.
//!
//! The dense contractions (matmul, batched matmul, dot) have no target
//! here: they are classified, but the general lowering is their only
//! lowering, so their simulated time is the generated kernel's and their
//! `tl.dot` is the interpreter's own.
//!
//! # Bit-identity contract
//!
//! The fused general lowering is the oracle. Its empirically pinned
//! semantics, which every microkernel here reproduces:
//!
//! * Products compute in `f64` and round once to `f32`
//!   (`(a as f64 * b as f64) as f32` equals the single-rounded `f32`
//!   product); `-0.0` is preserved and `0 * inf` produces NaN.
//! * Plain reductions sum in `f64` in row-major input order with no
//!   splitting, then round once to `f32`.
//! * `+=` (accumulate) adds the rounded `f32` result to the existing
//!   output value in `f32`; an `f16` output rounds through
//!   [`f16_round`](insum_tensor::f16_round) after every store.
//!
//! # Cost model
//!
//! Microkernel launches are modeled as one 1-D grid over output elements
//! (256 per instance) with perfect operand reuse: every operand crosses
//! L2/DRAM exactly once (compulsory traffic), dense FLOP issue, and one
//! modeled instruction per FLOP plus one per element moved. Times follow the
//! same [`DeviceModel`] arithmetic as the interpreter:
//! `launch_overhead + max(SM makespan, DRAM time)`. Stride-transform
//! views report zeroed counters and `time == 0.0` — no kernel runs. All
//! counters derive from shapes and dtypes only, so [`Mode::Execute`] and
//! [`Mode::Analytic`] report identical profiles.

use crate::device::DeviceModel;
use crate::interp::{GpuError, Mode};
use crate::stats::{combine_times, KernelReport, KernelStats};
use insum_pattern::Pattern;
use insum_tensor::{f16_round_slice, DType, Tensor};

/// Output elements modeled per grid instance.
const BLOCK: usize = 256;

/// True when a copy-shaped pattern (transpose/diagonal) can be served as
/// a pure stride view for this dtype pair.
///
/// Same dtype: the view *is* the raw bits the general pipeline would
/// store. `F16 -> F32`: widening preserves raw bits, so a retagged view
/// still matches. `F32 -> F16` narrows through
/// [`f16_round`](insum_tensor::f16_round) and therefore needs a real
/// kernel — callers must route it to the general path.
pub fn copy_view_eligible(input: DType, output: DType) -> bool {
    input == output || (input == DType::F16 && output == DType::F32)
}

fn micro_err(detail: impl Into<String>) -> GpuError {
    GpuError::Micro(detail.into())
}

/// Execute a recognized pattern against its factor tensors.
///
/// `factors` are the statement's right-hand-side tensors in source
/// order; `output` is the bound output tensor (its contents are the
/// accumulation base when `accumulate` is true, and define the output
/// shape/dtype always). In [`Mode::Analytic`] value math is skipped and
/// the unmodified `output` binding is returned, exactly like the general
/// pipeline; the report is identical in both modes.
///
/// # Errors
///
/// [`GpuError::Micro`] when the factor/output shapes or dtypes do not
/// match the pattern (the fast-path gate in `crates/core` validates
/// these before ever constructing a fast-path artifact).
pub fn run_micro(
    pattern: &Pattern,
    factors: &[Tensor],
    output: &Tensor,
    accumulate: bool,
    mode: Mode,
    device: &DeviceModel,
) -> Result<(Tensor, KernelReport), GpuError> {
    // A microkernel execution is a launch for telemetry purposes: the
    // profiling hook sees the same Launch interval the interpreter
    // records, so serve-layer traces stay uniform across both paths.
    let _launch_span = insum_telemetry::hook::timed(insum_telemetry::HookPhase::Launch);
    for t in factors {
        if t.dtype() == DType::I32 {
            return Err(micro_err("integer factors have no fast path"));
        }
    }
    if output.dtype() == DType::I32 {
        return Err(micro_err("integer outputs have no fast path"));
    }
    match pattern {
        Pattern::Transpose { perm } => {
            let [a] = factors else {
                return Err(micro_err("transpose expects one factor"));
            };
            let view = a.permute_view(perm).map_err(|e| micro_err(e.to_string()))?;
            copy_result(view, a, output, accumulate, mode, "view_transpose")
        }
        Pattern::Diagonal => {
            let [a] = factors else {
                return Err(micro_err("diagonal expects one factor"));
            };
            let view = a.diagonal_view().map_err(|e| micro_err(e.to_string()))?;
            copy_result(view, a, output, accumulate, mode, "view_diagonal")
        }
        Pattern::Reduction { axes } => {
            let [a] = factors else {
                return Err(micro_err("reduction expects one factor"));
            };
            let kept: Vec<usize> = (0..a.ndim()).filter(|d| !axes.contains(d)).collect();
            let want: Vec<usize> = kept.iter().map(|&d| a.shape()[d]).collect();
            check_out_shape(output, &want, "reduction")?;
            let reads = a.len() as u64;
            compute(
                "micro_reduction",
                factors,
                output,
                accumulate,
                mode,
                device,
                reads,
                |out| reduce_sum(a, axes, out),
            )
        }
        Pattern::Hadamard => {
            let [a, b] = factors else {
                return Err(micro_err("hadamard expects two factors"));
            };
            if a.shape() != b.shape() {
                return Err(micro_err("hadamard factors must share a shape"));
            }
            check_out_shape(output, a.shape(), "hadamard")?;
            compute(
                "micro_hadamard",
                factors,
                output,
                accumulate,
                mode,
                device,
                output.len() as u64,
                |out| {
                    let av = a.contiguous_data();
                    let bv = b.contiguous_data();
                    // The f64 product of two f32s is exact (24+24 < 53
                    // mantissa bits), so its single rounding to f32 IS
                    // the native f32 product — and the f32 loop
                    // vectorizes where the widening one does not.
                    for (o, (&x, &y)) in out.iter_mut().zip(av.iter().zip(bv.iter())) {
                        *o = x * y;
                    }
                },
            )
        }
        Pattern::Outer => {
            let [a, b] = factors else {
                return Err(micro_err("outer expects two factors"));
            };
            if a.ndim() != 1 || b.ndim() != 1 {
                return Err(micro_err("outer factors must be vectors"));
            }
            check_out_shape(output, &[a.len(), b.len()], "outer")?;
            compute(
                "micro_outer",
                factors,
                output,
                accumulate,
                mode,
                device,
                output.len() as u64,
                |out| {
                    let av = a.contiguous_data();
                    let bv = b.contiguous_data();
                    // Exact-product argument as for Hadamard above: the
                    // single-rounded f32 multiply is the f64 route's
                    // result bit for bit.
                    for (row, &x) in out.chunks_mut(bv.len()).zip(av.iter()) {
                        for (o, &y) in row.iter_mut().zip(bv.iter()) {
                            *o = x * y;
                        }
                    }
                },
            )
        }
        Pattern::Trace => {
            let [a] = factors else {
                return Err(micro_err("trace expects one factor"));
            };
            if a.ndim() != 2 || a.shape()[0] != a.shape()[1] {
                return Err(micro_err("trace expects a square matrix"));
            }
            check_out_shape(output, &[], "trace")?;
            let n = a.shape()[0];
            compute(
                "micro_trace",
                factors,
                output,
                accumulate,
                mode,
                device,
                n as u64,
                |out| {
                    let av = a.contiguous_data();
                    let mut acc = 0.0f64;
                    for i in 0..n {
                        acc += av[i * n + i] as f64;
                    }
                    out[0] = acc as f32;
                },
            )
        }
        Pattern::Matmul | Pattern::BatchedMatmul | Pattern::Dot | Pattern::General => Err(
            micro_err(format!("the {pattern} pattern has no microkernel")),
        ),
    }
}

/// Finish a copy-shaped pattern (transpose/diagonal) served by `view`.
fn copy_result(
    view: Tensor,
    input: &Tensor,
    output: &Tensor,
    accumulate: bool,
    mode: Mode,
    name: &str,
) -> Result<(Tensor, KernelReport), GpuError> {
    if accumulate {
        return Err(micro_err("copy patterns only fast-path `=` statements"));
    }
    if output.shape() != view.shape() {
        return Err(micro_err(format!(
            "output shape {:?} does not match {} result {:?}",
            output.shape(),
            name,
            view.shape()
        )));
    }
    if !copy_view_eligible(input.dtype(), output.dtype()) {
        return Err(micro_err("dtype pair is not view-eligible"));
    }
    let report = KernelReport {
        name: name.to_string(),
        grid: vec![],
        stats: KernelStats::default(),
        time: 0.0,
        sm_time: 0.0,
        dram_time: 0.0,
        max_instance_time: 0.0,
    };
    let out = match mode {
        Mode::Analytic => output.clone(),
        // A widening retag shares storage (`cast` to F32 is stride- and
        // Arc-preserving); same-dtype views are returned as-is.
        Mode::Execute => {
            if output.dtype() == view.dtype() {
                view
            } else {
                view.cast(output.dtype())
            }
        }
    };
    Ok((out, report))
}

fn check_out_shape(output: &Tensor, want: &[usize], what: &str) -> Result<(), GpuError> {
    if output.shape() != want {
        return Err(micro_err(format!(
            "output shape {:?} does not match {what} result {want:?}",
            output.shape()
        )));
    }
    Ok(())
}

/// Run a compute microkernel: `fill` produces the raw `f32` results in
/// row-major order, then the accumulate/f16 epilogue and the analytic
/// cost model are applied uniformly.
#[allow(clippy::too_many_arguments)]
fn compute(
    name: &str,
    factors: &[Tensor],
    output: &Tensor,
    accumulate: bool,
    mode: Mode,
    device: &DeviceModel,
    flops: u64,
    fill: impl FnOnce(&mut [f32]),
) -> Result<(Tensor, KernelReport), GpuError> {
    let report = model_launch(name, factors, output, accumulate, flops, device);
    if mode == Mode::Analytic {
        return Ok((output.clone(), report));
    }
    // Fill straight into the fresh (zeroed, uniquely-owned) output
    // buffer and run the epilogue in place — no scratch `raw` vector.
    let round = output.dtype() == DType::F16;
    let mut out = Tensor::zeros_with(output.shape().to_vec(), output.dtype());
    {
        let od = out.data_mut();
        fill(od);
        if accumulate {
            let base = output.contiguous_data();
            for (slot, &b) in od.iter_mut().zip(base.iter()) {
                *slot += b;
            }
        }
        if round {
            f16_round_slice(od);
        }
    }
    Ok((out, report))
}

/// Row-major `f64` sum over `axes` of `a` into `out` (raw `f32`s).
fn reduce_sum(a: &Tensor, axes: &[usize], out: &mut [f32]) {
    let shape = a.shape();
    let nd = shape.len();
    let data = a.contiguous_data();
    // Trailing-suffix reductions (`S[i] = A[i,j]`, the canonical shape)
    // sum contiguous chunks: same f64 adds in the same row-major order
    // as the generic walk below, minus the per-element index odometer.
    if let Some(&ma) = axes.iter().min() {
        if axes.len() == nd - ma && axes.iter().all(|&d| d >= ma) {
            let inner: usize = shape[ma..].iter().product();
            for (slot, chunk) in out.iter_mut().zip(data.chunks(inner.max(1))) {
                *slot = chunk.iter().map(|&v| v as f64).sum::<f64>() as f32;
            }
            return;
        }
    }
    let mut out_stride = vec![0usize; nd];
    let mut s = 1usize;
    for d in (0..nd).rev() {
        if !axes.contains(&d) {
            out_stride[d] = s;
            s *= shape[d];
        }
    }
    let mut acc = vec![0.0f64; out.len()];
    let mut idx = vec![0usize; nd];
    for &v in data.iter() {
        let o: usize = idx.iter().zip(&out_stride).map(|(i, st)| i * st).sum();
        acc[o] += v as f64;
        for d in (0..nd).rev() {
            idx[d] += 1;
            if idx[d] < shape[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    for (slot, &x) in out.iter_mut().zip(acc.iter()) {
        *slot = x as f32;
    }
}

/// Analytic launch model shared by every compute microkernel; derives
/// exclusively from shapes/dtypes so Execute and Analytic agree.
fn model_launch(
    name: &str,
    factors: &[Tensor],
    output: &Tensor,
    accumulate: bool,
    flops: u64,
    device: &DeviceModel,
) -> KernelReport {
    let read_bytes: u64 = factors
        .iter()
        .map(|t| (t.len() * t.dtype().size_bytes()) as u64)
        .sum::<u64>()
        + if accumulate {
            (output.len() * output.dtype().size_bytes()) as u64
        } else {
            0
        };
    let write_bytes = (output.len() * output.dtype().size_bytes()) as u64;
    let read_sectors = read_bytes.div_ceil(32);
    let write_sectors = write_bytes.div_ceil(32);
    let in_elems: u64 = factors.iter().map(|t| t.len() as u64).sum();
    let out_elems = output.len() as u64;
    let flops = flops + if accumulate { out_elems } else { 0 };
    let instructions = flops + in_elems + out_elems;
    let instances = out_elems.div_ceil(BLOCK as u64).max(1);
    let stats = KernelStats {
        instances,
        dram_read_sectors: read_sectors,
        dram_write_sectors: write_sectors,
        l2_read_sectors: read_sectors,
        l2_write_sectors: write_sectors,
        flops_scalar: flops,
        instructions,
        ..Default::default()
    };
    let per_instance = (instructions as f64 / instances as f64) * device.instr_issue
        + (flops as f64 / instances as f64) / device.per_sm(device.alu_flops);
    let times = vec![per_instance; instances as usize];
    let dram_time = stats.dram_bytes() as f64 / device.dram_bw;
    let (time, sm_time, dram_time) = combine_times(device, &times, dram_time);
    KernelReport {
        name: name.to_string(),
        grid: vec![instances as usize],
        stats,
        time,
        sm_time,
        dram_time,
        max_instance_time: per_instance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceModel {
        DeviceModel::rtx3090()
    }

    /// Deterministic non-trivial data (sign flips, non-dyadic values).
    fn ramp(shape: Vec<usize>) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|i| ((i as f32) * 0.37 - 2.1) * if i % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        Tensor::from_vec(shape, data).unwrap()
    }

    #[test]
    fn transpose_is_a_zero_copy_view() {
        let a = ramp(vec![5, 7]);
        let out = Tensor::zeros(vec![7, 5]);
        let (got, report) = run_micro(
            &Pattern::Transpose { perm: vec![1, 0] },
            std::slice::from_ref(&a),
            &out,
            false,
            Mode::Execute,
            &dev(),
        )
        .unwrap();
        // Sharing storage proves no bytes moved (the deep-copy counter is
        // asserted in simbench, which runs single-threaded).
        assert!(got.shares_storage(&a));
        assert_eq!(report.time, 0.0);
        assert_eq!(report.stats, KernelStats::default());
        for i in 0..7 {
            for j in 0..5 {
                assert_eq!(got.at(&[i, j]), a.at(&[j, i]));
            }
        }
    }

    #[test]
    fn diagonal_is_a_zero_copy_view() {
        let a = ramp(vec![6, 6]);
        let out = Tensor::zeros(vec![6]);
        let (got, _) = run_micro(
            &Pattern::Diagonal,
            std::slice::from_ref(&a),
            &out,
            false,
            Mode::Execute,
            &dev(),
        )
        .unwrap();
        assert!(got.shares_storage(&a));
        for i in 0..6 {
            assert_eq!(got.at(&[i]), a.at(&[i, i]));
        }
    }

    #[test]
    fn copy_patterns_reject_accumulate_and_narrowing() {
        let a = Tensor::zeros(vec![2, 3]);
        let out = Tensor::zeros(vec![3, 2]);
        let p = Pattern::Transpose { perm: vec![1, 0] };
        assert!(run_micro(
            &p,
            std::slice::from_ref(&a),
            &out,
            true,
            Mode::Execute,
            &dev()
        )
        .is_err());
        let out16 = Tensor::zeros_with(vec![3, 2], DType::F16);
        assert!(run_micro(&p, &[a], &out16, false, Mode::Execute, &dev()).is_err());
        assert!(copy_view_eligible(DType::F16, DType::F32));
        assert!(!copy_view_eligible(DType::F32, DType::F16));
    }

    #[test]
    fn dense_contractions_have_no_microkernel() {
        let v = ramp(vec![4]);
        let m = ramp(vec![4, 4]);
        let g = ramp(vec![2, 4, 4]);
        let cases = [
            (Pattern::Dot, [v.clone(), v], Tensor::zeros(vec![])),
            (Pattern::Matmul, [m.clone(), m.clone()], m),
            (Pattern::BatchedMatmul, [g.clone(), g.clone()], g),
        ];
        for (pattern, factors, out) in cases {
            assert!(!pattern.is_fast());
            let err = run_micro(&pattern, &factors, &out, false, Mode::Execute, &dev());
            assert!(matches!(err, Err(GpuError::Micro(_))), "{pattern}");
        }
    }

    #[test]
    fn analytic_mode_skips_values_but_reports_identically() {
        let a = ramp(vec![8, 8]);
        let b = ramp(vec![8, 8]);
        let out = Tensor::zeros(vec![8, 8]);
        let (v, r_exec) = run_micro(
            &Pattern::Hadamard,
            &[a.clone(), b.clone()],
            &out,
            false,
            Mode::Execute,
            &dev(),
        )
        .unwrap();
        let (skipped, r_ana) = run_micro(
            &Pattern::Hadamard,
            &[a, b],
            &out,
            false,
            Mode::Analytic,
            &dev(),
        )
        .unwrap();
        assert_eq!(r_exec, r_ana);
        assert!(r_exec.time > 0.0);
        assert!(skipped.bit_eq(&out), "analytic returns the binding");
        assert!(!v.bit_eq(&out));
    }

    #[test]
    fn accumulate_adds_to_the_binding() {
        let a = Tensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(vec![2], vec![10.0, 20.0]).unwrap();
        let base = Tensor::from_vec(vec![2], vec![0.5, 0.25]).unwrap();
        let (got, _) = run_micro(
            &Pattern::Hadamard,
            &[a, b],
            &base,
            true,
            Mode::Execute,
            &dev(),
        )
        .unwrap();
        assert_eq!(*got.contiguous_data(), [10.5, 40.25]);
    }

    #[test]
    fn trace_produces_a_scalar() {
        let out = Tensor::zeros(vec![]);
        let m = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let (t, _) = run_micro(&Pattern::Trace, &[m], &out, false, Mode::Execute, &dev()).unwrap();
        assert_eq!(t.contiguous_data()[0], 5.0);
    }

    #[test]
    fn reduction_sums_dropped_axes() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let out = Tensor::zeros(vec![2]);
        let (got, _) = run_micro(
            &Pattern::Reduction { axes: vec![1] },
            std::slice::from_ref(&a),
            &out,
            false,
            Mode::Execute,
            &dev(),
        )
        .unwrap();
        assert_eq!(*got.contiguous_data(), [6.0, 15.0]);
        let full = Tensor::zeros(vec![]);
        let (g2, _) = run_micro(
            &Pattern::Reduction { axes: vec![0, 1] },
            &[a],
            &full,
            false,
            Mode::Execute,
            &dev(),
        )
        .unwrap();
        assert_eq!(g2.contiguous_data()[0], 21.0);
    }

    #[test]
    fn outer_and_shape_mismatches() {
        let a = Tensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![3.0, 4.0, 5.0]).unwrap();
        let out = Tensor::zeros(vec![2, 3]);
        let (got, _) = run_micro(
            &Pattern::Outer,
            &[a.clone(), b.clone()],
            &out,
            false,
            Mode::Execute,
            &dev(),
        )
        .unwrap();
        assert_eq!(*got.contiguous_data(), [3., 4., 5., 6., 8., 10.]);
        let bad = Tensor::zeros(vec![3, 2]);
        assert!(run_micro(&Pattern::Outer, &[a, b], &bad, false, Mode::Execute, &dev()).is_err());
        assert!(run_micro(&Pattern::General, &[], &out, false, Mode::Execute, &dev()).is_err());
    }
}
