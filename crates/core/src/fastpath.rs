//! The fast-path dispatch stage of [`crate::insum_with`].
//!
//! Compilation has an explicit classification step in front of the
//! general lowering: a statement with no indirection that only moves its
//! one factor's elements — a transpose or a diagonal in the
//! [`insum_pattern`] recognition table — compiles to a Program-less
//! [`FastOp`] artifact that returns a zero-copy stride view through
//! [`insum_gpu::run_micro`] instead of building a kernel IR and running
//! the interpreter. Every statement that computes takes the general
//! lowering.
//!
//! The gate here is deliberately conservative — *everything* it declines
//! falls through to the general pipeline, which remains the bit-identity
//! oracle:
//!
//! * opt-out via [`InsumOptions::fast_path`], and the unfused ablation
//!   (`fuse: false`) always reproduces stock Inductor;
//! * any indirection (`B[AK[p],n]`), any factor count but one, or an
//!   output tensor that is also the factor;
//! * [`Pattern::General`]: every shape but transpose and diagonal;
//! * `+=`, integer tensors, or a narrowing dtype pair
//!   ([`insum_gpu::copy_view_eligible`]);
//! * inconsistent index extents (left for the general path to report).

use crate::options::InsumOptions;
use crate::{InsumError, Result};
use insum_gpu::{DeviceModel, KernelReport, Mode};
use insum_graph::TensorMeta;
use insum_inductor::InductorError;
use insum_lang::{AssignOp, IndexExpr, Statement};
use insum_pattern::{classify_terms, Pattern};
use insum_tensor::{DType, Tensor};
use std::collections::BTreeMap;

/// A compiled fast-path artifact: no kernel IR, no launch grid — just
/// the recognized view pattern, the binding names, and the shapes/dtypes
/// the statement was compiled against.
pub(crate) struct FastOp {
    pub(crate) pattern: Pattern,
    factor: String,
    out_name: String,
    metas: BTreeMap<String, TensorMeta>,
}

/// Attempt to plan `statement` on the fast path. `None` means "use the
/// general pipeline" — this function never errors.
pub(crate) fn try_fast_plan(
    statement: &Statement,
    metas: &BTreeMap<String, TensorMeta>,
    options: &InsumOptions,
) -> Option<FastOp> {
    if !options.fast_path || !options.fuse || statement.op == AssignOp::Accumulate {
        return None;
    }
    let [factor] = statement.factors.as_slice() else {
        return None;
    };
    if factor.tensor == statement.output.tensor {
        return None;
    }
    let term_of = |indices: &[IndexExpr]| -> Option<Vec<String>> {
        indices
            .iter()
            .map(|ix| match ix {
                IndexExpr::Var(v) => Some(v.clone()),
                IndexExpr::Indirect(_) => None,
            })
            .collect()
    };
    let term = term_of(&factor.indices)?;
    let out_vars = term_of(&statement.output.indices)?;
    let pattern = classify_terms(std::slice::from_ref(&term), &out_vars);
    if pattern == Pattern::General {
        return None;
    }

    // Extent consistency across every index occurrence (the diagonal's
    // two axes included); the general path owns error reporting for
    // genuinely inconsistent bindings.
    let in_meta = metas.get(&factor.tensor)?;
    let out_meta = metas.get(&statement.output.tensor)?;
    if in_meta.shape.len() != term.len()
        || in_meta.dtype == DType::I32
        || out_meta.dtype == DType::I32
        || !insum_gpu::copy_view_eligible(in_meta.dtype, out_meta.dtype)
    {
        return None;
    }
    let mut extents: BTreeMap<&str, usize> = BTreeMap::new();
    for (var, &ext) in term.iter().zip(&in_meta.shape) {
        if *extents.entry(var).or_insert(ext) != ext {
            return None;
        }
    }
    let want_out: Vec<usize> = out_vars
        .iter()
        .map(|v| extents.get(v.as_str()).copied())
        .collect::<Option<_>>()?;
    if out_meta.shape != want_out {
        return None;
    }
    Some(FastOp {
        pattern,
        factor: factor.tensor.clone(),
        out_name: statement.output.tensor.clone(),
        metas: BTreeMap::from([
            (factor.tensor.clone(), in_meta.clone()),
            (statement.output.tensor.clone(), out_meta.clone()),
        ]),
    })
}

impl FastOp {
    /// The tensors one request would bind (factor then output), for the
    /// batched runner's fault-injection parity check. Missing names are
    /// skipped here — [`FastOp::run`] reports them properly.
    pub(crate) fn bound_args(&self, tensors: &BTreeMap<String, Tensor>) -> Vec<Tensor> {
        [&self.factor, &self.out_name]
            .into_iter()
            .filter_map(|name| tensors.get(name).cloned())
            .collect()
    }

    /// Serve (or, in [`Mode::Analytic`], report) one request's view.
    pub(crate) fn run(
        &self,
        tensors: &BTreeMap<String, Tensor>,
        mode: Mode,
        device: &DeviceModel,
    ) -> Result<(Tensor, KernelReport)> {
        let factor = self.bound(tensors, &self.factor)?;
        let out = self.bound(tensors, &self.out_name)?;
        let factors = std::slice::from_ref(factor);
        insum_gpu::run_micro(&self.pattern, factors, out, false, mode, device)
            .map_err(|e| InsumError::Inductor(InductorError::Gpu(e)))
    }

    fn bound<'t>(&self, tensors: &'t BTreeMap<String, Tensor>, name: &str) -> Result<&'t Tensor> {
        let t = tensors
            .get(name)
            .ok_or_else(|| InsumError::MissingTensor(name.to_string()))?;
        let meta = &self.metas[name];
        if t.shape() != meta.shape || t.dtype() != meta.dtype {
            return Err(InsumError::Inductor(InductorError::Binding(format!(
                "tensor {name:?} bound as {:?} {:?} but compiled for {:?} {:?}",
                t.shape(),
                t.dtype(),
                meta.shape,
                meta.dtype
            ))));
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insum_lang::Access;

    fn access(tensor: &str, vars: &str) -> Access {
        let indices = vars.chars().map(|v| IndexExpr::Var(v.to_string()));
        Access {
            tensor: tensor.to_string(),
            indices: indices.collect(),
        }
    }

    /// `C[out] = A[..] * B[..] …` over single-letter index terms, with
    /// every index of extent 4 (a statement the parser cannot spell when
    /// `out` is rank 0).
    fn plan(out: &str, factors: &[&str]) -> Option<Pattern> {
        let names = ["A", "B"];
        let statement = Statement {
            output: access("C", out),
            op: AssignOp::Assign,
            factors: names
                .iter()
                .zip(factors)
                .map(|(t, v)| access(t, v))
                .collect(),
        };
        let metas = std::iter::once(("C", out))
            .chain(names.into_iter().zip(factors.iter().copied()))
            .map(|(t, vars)| {
                let meta = TensorMeta::new(vec![4; vars.len()], DType::F32);
                (t.to_string(), meta)
            });
        try_fast_plan(&statement, &metas.collect(), &InsumOptions::default()).map(|op| op.pattern)
    }

    #[test]
    fn dense_contractions_take_the_general_lowering() {
        for (out, factors, what) in [
            ("", &["i", "i"][..], "dot"),
            ("ij", &["ik", "kj"], "matmul"),
            ("gij", &["gik", "gkj"], "batched matmul"),
            ("ij", &["ij", "ij"], "hadamard"),
            ("ij", &["i", "j"], "outer"),
            ("i", &["ij"], "reduction"),
            ("", &["ii"], "trace"),
        ] {
            assert_eq!(plan(out, factors), None, "{what}");
        }
        let transpose = Pattern::Transpose { perm: vec![1, 0] };
        assert_eq!(plan("ji", &["ij"]), Some(transpose));
        assert_eq!(plan("i", &["ii"]), Some(Pattern::Diagonal));
    }
}
