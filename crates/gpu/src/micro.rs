//! Zero-copy stride views for the statements that compute nothing.
//!
//! The general interpreter ([`crate::launch`]) executes a lowered kernel
//! IR instruction by instruction, and it is the only lowering for every
//! statement that computes: sums, products and contractions run the
//! generated kernel, with its bits and its simulated time. What it cannot
//! beat is a statement that only moves each input element to one output
//! slot. For the two such shapes [`insum_pattern`] recognizes, this
//! module returns a view instead of running a kernel:
//!
//! * transpose (any permutation, identity included) becomes
//!   [`Tensor::permute_view`], and diagonal extraction becomes
//!   [`Tensor::diagonal_view`]: no kernel, no launch overhead, no bytes
//!   moved, `deep_copy_count()` unchanged. The fused general pipeline
//!   stores the *raw input bits* for these copy-shaped statements (NaN
//!   payloads and `-0.0` survive), so a view over the same storage is
//!   bit-identical by construction.
//!
//! A view reports zeroed counters and `time == 0.0` — no kernel runs —
//! so [`Mode::Execute`] and [`Mode::Analytic`] report identical profiles.

use crate::device::DeviceModel;
use crate::interp::{GpuError, Mode};
use crate::stats::{KernelReport, KernelStats};
use insum_pattern::Pattern;
use insum_tensor::{DType, Tensor};

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

/// Serve a view pattern from its one factor tensor.
///
/// `factors` are the statement's right-hand-side tensors in source
/// order; `output` is the bound output tensor, which defines the result
/// shape and dtype. In [`Mode::Analytic`] the unmodified `output`
/// binding is returned, exactly like the general pipeline; the report is
/// identical in both modes.
///
/// # Errors
///
/// [`GpuError::Micro`] for [`Pattern::General`], for `accumulate`, and
/// when the factor/output shapes or dtypes do not fit a view (the
/// fast-path gate in `crates/core` validates these before ever
/// constructing a fast-path artifact).
pub fn run_micro(
    pattern: &Pattern,
    factors: &[Tensor],
    output: &Tensor,
    accumulate: bool,
    mode: Mode,
    _device: &DeviceModel,
) -> Result<(Tensor, KernelReport), GpuError> {
    // A view is a launch for telemetry purposes: the profiling hook sees
    // the same Launch interval the interpreter records, so serve-layer
    // traces stay uniform across both paths.
    let _launch_span = insum_telemetry::hook::timed(insum_telemetry::HookPhase::Launch);
    let [a] = factors else {
        return Err(micro_err("a view has one factor"));
    };
    if a.dtype() == DType::I32 || output.dtype() == DType::I32 {
        return Err(micro_err("integer tensors have no fast path"));
    }
    let (view, name) = match pattern {
        Pattern::Transpose { perm } => (a.permute_view(perm), "view_transpose"),
        Pattern::Diagonal => (a.diagonal_view(), "view_diagonal"),
        Pattern::General => return Err(micro_err("the general pattern has no view")),
    };
    let view = view.map_err(|e| micro_err(e.to_string()))?;
    if accumulate {
        return Err(micro_err("views only serve `=` statements"));
    }
    if output.shape() != view.shape() {
        return Err(micro_err(format!(
            "output shape {:?} does not match {} result {:?}",
            output.shape(),
            name,
            view.shape()
        )));
    }
    if !copy_view_eligible(a.dtype(), output.dtype()) {
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

    /// Every statement that computes — reductions, trace, elementwise and
    /// outer products, the dense contractions — classifies `General`,
    /// which has no view; so do views with mismatched bindings.
    #[test]
    fn dense_contractions_have_no_microkernel() {
        let v = ramp(vec![4]);
        let m = ramp(vec![4, 4]);
        let scalar = Tensor::zeros(vec![]);
        let cases: [(&[&str], &str, Vec<Tensor>, &Tensor); 6] = [
            (&["ij"], "i", vec![m.clone()], &v),
            (&["ii"], "", vec![m.clone()], &scalar),
            (&["ij", "ij"], "ij", vec![m.clone(), m.clone()], &m),
            (&["i", "j"], "ij", vec![v.clone(), v.clone()], &m),
            (&["i", "i"], "", vec![v.clone(), v.clone()], &scalar),
            (&["ij", "jk"], "ik", vec![m.clone(), m.clone()], &m),
        ];
        for (inputs, output, factors, out) in cases {
            let term = |t: &str| t.chars().map(String::from).collect::<Vec<_>>();
            let terms: Vec<Vec<String>> = inputs.iter().map(|t| term(t)).collect();
            let pattern = insum_pattern::classify_terms(&terms, &term(output));
            assert_eq!(pattern, Pattern::General, "{inputs:?} -> {output}");
            let err = run_micro(&pattern, &factors, out, false, Mode::Execute, &dev());
            assert!(matches!(err, Err(GpuError::Micro(_))), "{inputs:?}");
        }
        let transpose = Pattern::Transpose { perm: vec![1, 0] };
        let wide = ramp(vec![2, 3]);
        let bad = Tensor::zeros(vec![2, 3]);
        let err = run_micro(&transpose, &[wide], &bad, false, Mode::Execute, &dev());
        assert!(matches!(err, Err(GpuError::Micro(_))), "shape mismatch");
        let err = run_micro(
            &transpose,
            &[v.clone(), v],
            &m,
            false,
            Mode::Execute,
            &dev(),
        );
        assert!(matches!(err, Err(GpuError::Micro(_))), "two factors");
    }

    #[test]
    fn analytic_mode_skips_values_but_reports_identically() {
        let a = ramp(vec![8, 5]);
        let out = Tensor::zeros(vec![5, 8]);
        let transpose = Pattern::Transpose { perm: vec![1, 0] };
        let run = |mode| {
            run_micro(
                &transpose,
                std::slice::from_ref(&a),
                &out,
                false,
                mode,
                &dev(),
            )
        };
        let (v, r_exec) = run(Mode::Execute).unwrap();
        let (skipped, r_ana) = run(Mode::Analytic).unwrap();
        assert_eq!(r_exec, r_ana);
        assert!(skipped.bit_eq(&out), "analytic returns the binding");
        assert!(!v.bit_eq(&out));
    }
}
