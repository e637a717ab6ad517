//! The fast-path dispatch stage of [`crate::insum_with`].
//!
//! Compilation now has an explicit classification step in front of the
//! general lowering: statements with no indirection whose index
//! structure matches the [`insum_pattern`] recognition table compile to
//! a Program-less [`FastOp`] artifact that executes through
//! [`insum_gpu::run_micro`] (microkernels and zero-copy stride views)
//! instead of building a kernel IR and running the interpreter.
//!
//! The gate here is deliberately conservative — *everything* it declines
//! falls through to the general pipeline, which remains the bit-identity
//! oracle:
//!
//! * opt-out via [`InsumOptions::fast_path`], and the unfused ablation
//!   (`fuse: false`) always reproduces stock Inductor;
//! * any indirection (`B[AK[p],n]`), more than two factors, or an
//!   output tensor that also appears as a factor;
//! * a classification of [`Pattern::General`];
//! * integer factors or outputs;
//! * copy-shaped patterns (transpose/diagonal) with `+=` or with a
//!   narrowing dtype pair ([`insum_gpu::copy_view_eligible`]);
//! * dot-family (matmul/batched/dot) statements with Tensor Cores off
//!   (the scalar lowering has no zero skip), and dot-family or reduction
//!   statements with autotuning or explicit R/X block overrides (the
//!   microkernels pin the default lowering's tile boundaries);
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
/// the recognized pattern, the binding names, and the shapes/dtypes the
/// statement was compiled against.
pub(crate) struct FastOp {
    pub(crate) pattern: Pattern,
    factors: Vec<String>,
    out_name: String,
    accumulate: bool,
    metas: BTreeMap<String, TensorMeta>,
}

/// Attempt to plan `statement` on the fast path. `None` means "use the
/// general pipeline" — this function never errors.
pub(crate) fn try_fast_plan(
    statement: &Statement,
    metas: &BTreeMap<String, TensorMeta>,
    options: &InsumOptions,
) -> Option<FastOp> {
    if !options.fast_path || !options.fuse {
        return None;
    }
    if statement.output.has_indirection() || statement.factors.iter().any(|f| f.has_indirection()) {
        return None;
    }
    if statement.factors.is_empty() || statement.factors.len() > 2 {
        return None;
    }
    if statement
        .factors
        .iter()
        .any(|f| f.tensor == statement.output.tensor)
    {
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
    let terms: Vec<Vec<String>> = statement
        .factors
        .iter()
        .map(|f| term_of(&f.indices))
        .collect::<Option<_>>()?;
    let out_vars = term_of(&statement.output.indices)?;
    let pattern = classify_terms(&terms, &out_vars);
    if !pattern.is_fast() {
        return None;
    }

    // Extent consistency across every index occurrence; the general
    // path owns error reporting for genuinely inconsistent bindings.
    let mut extents: BTreeMap<&str, usize> = BTreeMap::new();
    let mut op_metas = BTreeMap::new();
    for (f, term) in statement.factors.iter().zip(&terms) {
        let meta = metas.get(&f.tensor)?;
        if meta.dtype == DType::I32 || meta.shape.len() != term.len() {
            return None;
        }
        for (var, &ext) in term.iter().zip(&meta.shape) {
            if *extents.entry(var).or_insert(ext) != ext {
                return None;
            }
        }
        op_metas.insert(f.tensor.clone(), meta.clone());
    }
    let out_meta = metas.get(&statement.output.tensor)?;
    let want_out: Vec<usize> = out_vars
        .iter()
        .map(|v| extents.get(v.as_str()).copied())
        .collect::<Option<_>>()?;
    if out_meta.dtype == DType::I32 || out_meta.shape != want_out {
        return None;
    }
    op_metas.insert(statement.output.tensor.clone(), out_meta.clone());

    let accumulate = statement.op == AssignOp::Accumulate;
    if matches!(pattern, Pattern::Transpose { .. } | Pattern::Diagonal) {
        let in_dtype = op_metas[&statement.factors[0].tensor].dtype;
        if accumulate || !insum_gpu::copy_view_eligible(in_dtype, out_meta.dtype) {
            return None;
        }
    }
    if matches!(
        pattern,
        Pattern::Matmul | Pattern::BatchedMatmul | Pattern::Dot
    ) {
        // The dot microkernel reproduces the Tensor-Core lowering's
        // accumulation (Block::dot zero-skip at the default R/X tile
        // boundaries). The scalar lowering has no zero skip, and
        // autotuned or overridden blocks move the tile boundaries — both
        // would break NaN-corner bit-identity, so they take the general
        // path.
        if !options.tensor_cores
            || options.autotune
            || options.rblock.is_some()
            || options.xblock.is_some()
        {
            return None;
        }
    }
    if matches!(pattern, Pattern::Reduction { .. })
        && (options.autotune || options.rblock.is_some())
    {
        // Same reasoning for the reduction sum's R chunking.
        return None;
    }
    Some(FastOp {
        pattern,
        factors: statement.factors.iter().map(|f| f.tensor.clone()).collect(),
        out_name: statement.output.tensor.clone(),
        accumulate,
        metas: op_metas,
    })
}

impl FastOp {
    /// The tensors one request would bind (factors then output), for
    /// the batched runner's fault-injection parity check. Missing names
    /// are skipped here — [`FastOp::run`] reports them properly.
    pub(crate) fn bound_args(&self, tensors: &BTreeMap<String, Tensor>) -> Vec<Tensor> {
        self.factors
            .iter()
            .chain(std::iter::once(&self.out_name))
            .filter_map(|name| tensors.get(name).cloned())
            .collect()
    }

    /// Execute (or, in [`Mode::Analytic`], cost-model) one request.
    pub(crate) fn run(
        &self,
        tensors: &BTreeMap<String, Tensor>,
        mode: Mode,
        device: &DeviceModel,
    ) -> Result<(Tensor, KernelReport)> {
        let mut factors = Vec::with_capacity(self.factors.len());
        for name in &self.factors {
            factors.push(self.bound(tensors, name)?.clone());
        }
        let out = self.bound(tensors, &self.out_name)?;
        insum_gpu::run_micro(&self.pattern, &factors, out, self.accumulate, mode, device)
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
