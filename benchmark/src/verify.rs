//! Output verification, always outside the timed window.
//!
//! Every distinct operation's output must be
//! * `bit_eq` to the seed interpreter
//!   (`insum_gpu::reference::launch_reference`) running the same kernel —
//!   or, for fast-path statements and chains, to a one-shot run through
//!   the general pipeline (`fast_path: false`), and
//! * `allclose` to an independent reference that shares no code with the
//!   compiler: `insum::eager` for statements (the dense matrix product
//!   for blocked SpMMs), `insum::chain_reference` for chains.

use crate::inputs::{Bindings, Case};
use crate::layers::{bind_args, metas_of, out_pos};
use insum::{insum_with, Compiled, InsumOptions, Profile, ProgramCache, Tensor};
use insum_gpu::reference::launch_reference;
use insum_gpu::Mode;
use insum_inductor::{autotune_with, build_plan, compile_fused, CodegenOptions};

pub struct Check {
    pub what: String,
    pub ok: bool,
}

pub fn check(checks: &mut Vec<Check>, what: impl Into<String>, ok: bool) {
    checks.push(Check {
        what: what.into(),
        ok,
    });
}

/// f16 outputs carry one rounding of a value near 10; f32 ones only
/// differ from the eager reference by summation order.
fn tolerance(out: &Tensor) -> f32 {
    match out.dtype() {
        insum::DType::F16 => 2e-2,
        _ => 2e-3,
    }
}

fn general(opts: &InsumOptions) -> InsumOptions {
    InsumOptions {
        fast_path: false,
        ..opts.clone()
    }
}

/// Verify one statement's `(output, profile)` as produced by `compiled`.
pub fn statement(
    case: &Case,
    compiled: &Compiled,
    out: &Tensor,
    profile: &Profile,
    opts: &InsumOptions,
    checks: &mut Vec<Check>,
) {
    let name = case.name;
    if compiled.fast_path_pattern().is_some() {
        let oracle =
            insum_with(case.expr, &case.tensors, &general(opts)).and_then(|c| c.run(&case.tensors));
        let ok = matches!(&oracle, Ok((want, _)) if want.bit_eq(out));
        check(
            checks,
            format!("{name}: fast path bit_eq general pipeline"),
            ok,
        );
    } else {
        check(
            checks,
            format!("{name}: bit_eq seed interpreter (output, stats, simulated time)"),
            matches_seed_interpreter(case, compiled, out, profile, opts),
        );
    }
    let (what, want) = match &case.dense_product {
        Some((a, b)) => (
            "dense A.matmul(B)",
            a.matmul(b)
                .and_then(|c| c.reshape(out.shape().to_vec()))
                .ok(),
        ),
        None => (
            "eager reference",
            insum::eager(case.expr, &case.tensors).ok(),
        ),
    };
    let ok = matches!(want, Some(want) if out.allclose(&want, tolerance(out), tolerance(out)));
    check(checks, format!("{name}: allclose {what}"), ok);
}

/// Rebuild the kernel `compiled` launches through the public inductor
/// functions, run it on the seed interpreter, and compare everything
/// the launch reports.
fn matches_seed_interpreter(
    case: &Case,
    compiled: &Compiled,
    out: &Tensor,
    profile: &Profile,
    opts: &InsumOptions,
) -> bool {
    let Ok(stmt) = insum_lang::parse(case.expr) else {
        return false;
    };
    let Ok(plan) = build_plan(&stmt, &metas_of(&case.tensors)) else {
        return false;
    };
    let codegen = CodegenOptions::default();
    let op = if case.tuned {
        autotune_with(
            &plan,
            &codegen,
            &case.tensors,
            &opts.device,
            &ProgramCache::new(),
        )
        .map(|r| r.op)
    } else {
        compile_fused(&plan, &codegen)
    };
    let (Ok(op), Some(signature)) = (op, compiled.launch_signature()) else {
        return false;
    };
    if insum_kernel::fingerprint(&op.kernel) != signature.kernel_fingerprint
        || op.grid != signature.grid
    {
        return false;
    }
    let mut owned = bind_args(&op, &case.tensors);
    let mut refs: Vec<&mut Tensor> = owned.iter_mut().collect();
    let Ok(report) = launch_reference(&op.kernel, &op.grid, &mut refs, &opts.device, Mode::Execute)
    else {
        return false;
    };
    let [launched] = profile.reports.as_slice() else {
        return false;
    };
    owned[out_pos(&op)].bit_eq(out)
        && report.stats == launched.stats
        && report.time == launched.time
}

/// Verify one chain's output.
pub fn chain(
    name: &str,
    expr: &str,
    tensors: &Bindings,
    out: &Tensor,
    opts: &InsumOptions,
    checks: &mut Vec<Check>,
) {
    let oracle = insum::plan(expr, tensors, &general(opts)).and_then(|c| c.run(tensors));
    let ok = matches!(&oracle, Ok((want, _)) if want.bit_eq(out));
    check(checks, format!("{name}: chain bit_eq general pipeline"), ok);
    // Integer-valued operands: every contraction order is exact.
    let ok = match insum::chain_reference(expr, tensors) {
        Ok(want) => out.allclose(&want, 0.0, 0.0),
        Err(_) => false,
    };
    check(checks, format!("{name}: equals chain_reference"), ok);
}
