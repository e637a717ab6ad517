//! Executing compiled fused operations on the simulator.
//!
//! Launches go through the process-wide [`ProgramCache`], so the
//! ahead-of-time lowering of a kernel happens once per distinct
//! (kernel, grid, argument metadata) across repeated runs and the full
//! launches of autotuning trials.

use crate::cache::{cached_program, ProgramCache};
use crate::codegen::FusedOp;
use crate::error::InductorError;
use crate::plan::FusionPlan;
use crate::Result;
use insum_gpu::{DeviceModel, KernelReport, LaunchOptions, Mode};
use insum_tensor::{DType, Tensor};
use std::collections::BTreeMap;

/// Run a fused operation over named tensors: the batch of one request
/// (see [`run_fused_batch_with_cache`], which costs nothing extra for a
/// single request — [`insum_gpu::Program::launch_batch_with`] runs a
/// batch of one inline on the calling thread, as a plain launch).
///
/// The output tensor named by the plan is cloned from `inputs`, mutated by
/// the kernel (in [`Mode::Execute`]), and returned together with the
/// launch report. In [`Mode::Analytic`] the returned tensor is the
/// unmodified output binding. Pass [`ProgramCache::global`] for the
/// process-wide cache, or a private one for isolated hit/miss counters.
///
/// # Errors
///
/// * [`InductorError::Binding`] if a parameter tensor is missing.
/// * Simulator errors are propagated.
pub fn run_fused_with_cache(
    op: &FusedOp,
    inputs: &BTreeMap<String, Tensor>,
    device: &DeviceModel,
    mode: Mode,
    launch_options: &LaunchOptions,
    cache: &ProgramCache,
) -> Result<(Tensor, KernelReport)> {
    let mut results =
        run_fused_batch_with_cache(op, &[inputs], device, mode, launch_options, cache)?;
    Ok(results.pop().expect("one result per request"))
}

/// The plan's parameters bound from `inputs`, in launch order.
///
/// Argument capture binds shared storage, not copies: `Tensor` clones
/// are O(1) Arc bumps, and only the parameters the kernel actually
/// writes materialize a private buffer (copy-on-write at first write),
/// so the caller's bindings are never mutated and read-only inputs are
/// never copied. A strided view (e.g. a fast-path transpose output fed
/// back in) is gathered first — the interpreter addresses raw row-major
/// storage.
pub(crate) fn bind_args(
    plan: &FusionPlan,
    inputs: &BTreeMap<String, Tensor>,
) -> Result<Vec<Tensor>> {
    let mut owned: Vec<Tensor> = Vec::with_capacity(plan.param_order.len());
    for name in &plan.param_order {
        let t = inputs
            .get(name)
            .ok_or_else(|| InductorError::Binding(format!("missing tensor {name:?}")))?;
        owned.push(t.contiguous());
    }
    Ok(owned)
}

/// Run one fused operation for every request of a batch, sharing one
/// pool of simulator threads across the whole batch (see
/// [`insum_gpu::Program::launch_batch_with`]).
///
/// All requests must bind tensors with identical lengths and dtypes (the
/// batch shares one compiled program); a mismatch is reported as a
/// binding error naming the offending request. Each request's output
/// tensor and [`KernelReport`] are bit-identical to a serial per-request
/// [`run_fused_with_cache`] call, regardless of batch composition,
/// request order, or thread count. Per-request argument capture is
/// zero-copy (`Tensor` clones share storage): requests sharing operand
/// tensors (weights, sparse structure) share one buffer across the whole
/// batch, and only each request's written output materializes.
///
/// # Errors
///
/// * [`InductorError::Binding`] if a parameter tensor is missing or a
///   request's argument metadata differs from the first request's.
/// * Simulator errors are propagated (first failing request wins).
pub fn run_fused_batch_with_cache(
    op: &FusedOp,
    batch: &[&BTreeMap<String, Tensor>],
    device: &DeviceModel,
    mode: Mode,
    launch_options: &LaunchOptions,
    cache: &ProgramCache,
) -> Result<Vec<(Tensor, KernelReport)>> {
    if batch.is_empty() {
        return Ok(Vec::new());
    }
    let mut owned: Vec<Vec<Tensor>> = Vec::with_capacity(batch.len());
    for (req, inputs) in batch.iter().enumerate() {
        owned.push(bind_args(&op.plan, inputs).map_err(|e| match e {
            InductorError::Binding(msg) => InductorError::Binding(format!("request {req}: {msg}")),
            other => other,
        })?);
    }
    #[cfg(feature = "fault-injection")]
    crate::faults::maybe_panic_batch(&owned);
    let lens: Vec<usize> = owned[0].iter().map(|t| t.len()).collect();
    let dtypes: Vec<DType> = owned[0].iter().map(|t| t.dtype()).collect();
    for (req, args) in owned.iter().enumerate().skip(1) {
        let ok = args
            .iter()
            .zip(lens.iter().zip(&dtypes))
            .all(|(t, (&l, &d))| t.len() == l && t.dtype() == d);
        if !ok {
            return Err(InductorError::Binding(format!(
                "request {req}: argument metadata differs from the batch's \
                 (batched launches share one compiled program)"
            )));
        }
    }
    let program = cached_program(cache, &op.kernel, &op.grid, &lens, &dtypes)?;
    let mut views: Vec<Vec<&mut Tensor>> = owned
        .iter_mut()
        .map(|args| args.iter_mut().collect())
        .collect();
    let mut requests: Vec<&mut [&mut Tensor]> =
        views.iter_mut().map(|v| v.as_mut_slice()).collect();
    let reports = program.launch_batch_with(&mut requests, device, mode, launch_options)?;
    let out_pos = op
        .plan
        .param_order
        .iter()
        .position(|n| n == &op.plan.output.tensor)
        .expect("output is always a parameter");
    Ok(owned
        .into_iter()
        .zip(reports)
        .map(|(mut args, report)| (args.swap_remove(out_pos), report))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{compile_fused, CodegenOptions};
    use crate::plan::build_plan;
    use insum_graph::{execute, lower, TensorMeta};
    use insum_lang::parse;
    use insum_tensor::{rand_uniform, randint, DType};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Compile + run an expression both through the fused kernel and the
    /// eager graph interpreter and compare.
    fn check_against_eager(expr: &str, binds: &[(&str, Tensor)], opts: &CodegenOptions) {
        let stmt = parse(expr).unwrap();
        let metas: BTreeMap<String, TensorMeta> = binds
            .iter()
            .map(|(n, t)| {
                (
                    n.to_string(),
                    TensorMeta::new(t.shape().to_vec(), t.dtype()),
                )
            })
            .collect();
        let inputs: BTreeMap<String, Tensor> = binds
            .iter()
            .map(|(n, t)| (n.to_string(), t.clone()))
            .collect();

        let plan = build_plan(&stmt, &metas).unwrap();
        let op = compile_fused(&plan, opts).unwrap();
        let device = DeviceModel::rtx3090();
        let (got, report) = run_fused_with_cache(
            &op,
            &inputs,
            &device,
            Mode::Execute,
            &LaunchOptions::default(),
            ProgramCache::global(),
        )
        .unwrap();
        assert!(report.time > 0.0);

        let lowered = lower(&stmt, &metas).unwrap();
        let want = execute(&lowered.graph, &inputs).unwrap();
        assert!(
            got.allclose(&want, 1e-3, 1e-3),
            "{expr}: fused kernel diverges from eager (max diff {:?})",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn dense_matmul_matches_eager() {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = rand_uniform(vec![48, 24], -1.0, 1.0, &mut rng);
        let b = rand_uniform(vec![24, 40], -1.0, 1.0, &mut rng);
        let c = Tensor::zeros(vec![48, 40]);
        for opts in [
            CodegenOptions::default(),
            CodegenOptions {
                tensor_cores: false,
                ..Default::default()
            },
            CodegenOptions {
                lazy_broadcast: false,
                ..Default::default()
            },
        ] {
            check_against_eager(
                "C[y,x] = A[y,r] * B[r,x]",
                &[("C", c.clone()), ("A", a.clone()), ("B", b.clone())],
                &opts,
            );
        }
    }

    #[test]
    fn coo_spmm_matches_eager() {
        let mut rng = SmallRng::seed_from_u64(2);
        let nnz = 37;
        let am = randint(vec![nnz], 16, &mut rng);
        let ak = randint(vec![nnz], 20, &mut rng);
        let av = rand_uniform(vec![nnz], -1.0, 1.0, &mut rng);
        let b = rand_uniform(vec![20, 24], -1.0, 1.0, &mut rng);
        let c = Tensor::zeros(vec![16, 24]);
        check_against_eager(
            "C[AM[p],n] += AV[p] * B[AK[p],n]",
            &[("C", c), ("AM", am), ("AK", ak), ("AV", av), ("B", b)],
            &CodegenOptions::default(),
        );
    }

    #[test]
    fn group_coo_spmm_matches_eager() {
        let mut rng = SmallRng::seed_from_u64(3);
        let (groups, g) = (11, 3);
        let am = randint(vec![groups], 8, &mut rng);
        let ak = randint(vec![groups, g], 12, &mut rng);
        let av = rand_uniform(vec![groups, g], -1.0, 1.0, &mut rng);
        let b = rand_uniform(vec![12, 20], -1.0, 1.0, &mut rng);
        let c = Tensor::zeros(vec![8, 20]);
        check_against_eager(
            "C[AM[p],n] += AV[p,q] * B[AK[p,q],n]",
            &[("C", c), ("AM", am), ("AK", ak), ("AV", av), ("B", b)],
            &CodegenOptions::default(),
        );
    }

    #[test]
    fn block_group_coo_spmm_matches_eager() {
        let mut rng = SmallRng::seed_from_u64(4);
        let (groups, g, bm, bk) = (5, 2, 16, 16);
        let brows = 4;
        let bcols = 3;
        let n = 32;
        let am = randint(vec![groups], brows, &mut rng);
        let ak = randint(vec![groups, g], bcols, &mut rng);
        let av = rand_uniform(vec![groups, g, bm, bk], -1.0, 1.0, &mut rng);
        let b = rand_uniform(vec![bcols, bk, n], -1.0, 1.0, &mut rng);
        let c = Tensor::zeros(vec![brows, bm, n]);
        for opts in [
            CodegenOptions::default(),
            CodegenOptions {
                lazy_broadcast: false,
                ..Default::default()
            },
            CodegenOptions {
                tensor_cores: false,
                ..Default::default()
            },
        ] {
            check_against_eager(
                "C[AM[p],bm,n] += AV[p,q,bm,bk] * B[AK[p,q],bk,n]",
                &[
                    ("C", c.clone()),
                    ("AM", am.clone()),
                    ("AK", ak.clone()),
                    ("AV", av.clone()),
                    ("B", b.clone()),
                ],
                &opts,
            );
        }
    }

    #[test]
    fn sparse_conv_matches_eager() {
        let mut rng = SmallRng::seed_from_u64(5);
        let (pairs, q, c_in, c_out) = (7, 4, 24, 16);
        let voxels = 30;
        let offsets = 27;
        let mapx = randint(vec![pairs], voxels, &mut rng);
        let mapy = randint(vec![pairs, q], voxels, &mut rng);
        let mapz = randint(vec![pairs], offsets, &mut rng);
        let mapv = rand_uniform(vec![pairs, q], 0.0, 1.0, &mut rng);
        let input = rand_uniform(vec![voxels, c_in], -1.0, 1.0, &mut rng);
        let weight = rand_uniform(vec![offsets, c_in, c_out], -1.0, 1.0, &mut rng);
        let out = Tensor::zeros(vec![voxels, q, c_out]);
        check_against_eager(
            "Out[MAPX[p],q,m] += MAPV[p,q] * In[MAPY[p,q],c] * Weight[MAPZ[p],c,m]",
            &[
                ("Out", out),
                ("MAPX", mapx),
                ("MAPY", mapy),
                ("MAPZ", mapz),
                ("MAPV", mapv),
                ("In", input),
                ("Weight", weight),
            ],
            &CodegenOptions::default(),
        );
    }

    #[test]
    fn equivariant_tp_matches_eager() {
        let mut rng = SmallRng::seed_from_u64(6);
        let (b_sz, paths, g, u, w) = (3, 4, 2, 8, 16);
        let (i_dim, j_dim, k_dim, l_dim) = (6, 7, 8, 4);
        let cgi = randint(vec![paths, g], i_dim, &mut rng);
        let cgj = randint(vec![paths, g], j_dim, &mut rng);
        let cgk = randint(vec![paths, g], k_dim, &mut rng);
        let cgl = randint(vec![paths], l_dim, &mut rng);
        let cgv = rand_uniform(vec![paths, g], -1.0, 1.0, &mut rng);
        let x = rand_uniform(vec![b_sz, j_dim, u], -1.0, 1.0, &mut rng);
        let y = rand_uniform(vec![b_sz, k_dim], -1.0, 1.0, &mut rng);
        let wt = rand_uniform(vec![b_sz, l_dim, u, w], -1.0, 1.0, &mut rng);
        let z = Tensor::zeros(vec![b_sz, i_dim, w]);
        check_against_eager(
            "Z[b,CGI[p,q],w] += CGV[p,q] * X[b,CGJ[p,q],u] * Y[b,CGK[p,q]] * W[b,CGL[p],u,w]",
            &[
                ("Z", z),
                ("CGI", cgi),
                ("CGJ", cgj),
                ("CGK", cgk),
                ("CGL", cgl),
                ("CGV", cgv),
                ("X", x),
                ("Y", y),
                ("W", wt),
            ],
            &CodegenOptions::default(),
        );
    }

    #[test]
    fn f16_pipeline_matches_eager() {
        let mut rng = SmallRng::seed_from_u64(7);
        let a = rand_uniform(vec![32, 32], -1.0, 1.0, &mut rng).cast(DType::F16);
        let b = rand_uniform(vec![32, 32], -1.0, 1.0, &mut rng).cast(DType::F16);
        let c = Tensor::zeros(vec![32, 32]).cast(DType::F16);
        check_against_eager(
            "C[y,x] = A[y,r] * B[r,x]",
            &[("C", c), ("A", a), ("B", b)],
            &CodegenOptions::default(),
        );
    }

    #[test]
    fn batched_requests_match_serial_runs_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(21);
        let nnz = 37;
        let am = randint(vec![nnz], 16, &mut rng);
        let ak = randint(vec![nnz], 20, &mut rng);
        let av = rand_uniform(vec![nnz], -1.0, 1.0, &mut rng);
        let stmt = parse("C[AM[p],n] += AV[p] * B[AK[p],n]").unwrap();
        let mk_request = |rng: &mut SmallRng| -> BTreeMap<String, Tensor> {
            [
                ("C".to_string(), Tensor::zeros(vec![16, 24])),
                ("AM".to_string(), am.clone()),
                ("AK".to_string(), ak.clone()),
                ("AV".to_string(), av.clone()),
                ("B".to_string(), rand_uniform(vec![20, 24], -1.0, 1.0, rng)),
            ]
            .into_iter()
            .collect()
        };
        let requests: Vec<BTreeMap<String, Tensor>> =
            (0..5).map(|_| mk_request(&mut rng)).collect();
        let metas: BTreeMap<String, TensorMeta> = requests[0]
            .iter()
            .map(|(n, t)| (n.clone(), TensorMeta::new(t.shape().to_vec(), t.dtype())))
            .collect();
        let plan = build_plan(&stmt, &metas).unwrap();
        let op = compile_fused(&plan, &CodegenOptions::default()).unwrap();
        let device = DeviceModel::rtx3090();
        for mode in [Mode::Execute, Mode::Analytic] {
            let serial: Vec<(Tensor, KernelReport)> = requests
                .iter()
                .map(|r| {
                    run_fused_with_cache(
                        &op,
                        r,
                        &device,
                        mode,
                        &LaunchOptions::sequential(),
                        ProgramCache::global(),
                    )
                    .unwrap()
                })
                .collect();
            let refs: Vec<&BTreeMap<String, Tensor>> = requests.iter().collect();
            let batched = run_fused_batch_with_cache(
                &op,
                &refs,
                &device,
                mode,
                &LaunchOptions::with_threads(3),
                &ProgramCache::new(),
            )
            .unwrap();
            assert_eq!(batched.len(), serial.len());
            for ((got_t, got_r), (want_t, want_r)) in batched.iter().zip(&serial) {
                assert_eq!(got_t.data(), want_t.data(), "{mode:?} outputs diverge");
                assert_eq!(got_r, want_r, "{mode:?} reports diverge");
            }
        }
    }

    #[test]
    fn batched_shared_handles_never_leak_writes() {
        // Every request binds the *same* copy-on-write tensor handles —
        // including the output. Each request must still produce the
        // serial result, and the caller's bindings must stay untouched.
        let mut rng = SmallRng::seed_from_u64(33);
        let nnz = 23;
        let base: BTreeMap<String, Tensor> = [
            ("C".to_string(), Tensor::zeros(vec![12, 16])),
            ("AM".to_string(), randint(vec![nnz], 12, &mut rng)),
            ("AK".to_string(), randint(vec![nnz], 10, &mut rng)),
            (
                "AV".to_string(),
                rand_uniform(vec![nnz], -1.0, 1.0, &mut rng),
            ),
            (
                "B".to_string(),
                rand_uniform(vec![10, 16], -1.0, 1.0, &mut rng),
            ),
        ]
        .into_iter()
        .collect();
        let stmt = parse("C[AM[p],n] += AV[p] * B[AK[p],n]").unwrap();
        let metas: BTreeMap<String, TensorMeta> = base
            .iter()
            .map(|(n, t)| (n.clone(), TensorMeta::new(t.shape().to_vec(), t.dtype())))
            .collect();
        let plan = build_plan(&stmt, &metas).unwrap();
        let op = compile_fused(&plan, &CodegenOptions::default()).unwrap();
        let device = DeviceModel::rtx3090();
        let (want, _) = run_fused_with_cache(
            &op,
            &base,
            &device,
            Mode::Execute,
            &LaunchOptions::sequential(),
            ProgramCache::global(),
        )
        .unwrap();
        let requests: Vec<BTreeMap<String, Tensor>> = (0..4).map(|_| base.clone()).collect();
        let refs: Vec<&BTreeMap<String, Tensor>> = requests.iter().collect();
        let batched = run_fused_batch_with_cache(
            &op,
            &refs,
            &device,
            Mode::Execute,
            &LaunchOptions::with_threads(3),
            &ProgramCache::new(),
        )
        .unwrap();
        assert!(want.data().iter().any(|&v| v != 0.0));
        for (got, _) in &batched {
            assert_eq!(got.data(), want.data(), "shared-handle batch diverges");
        }
        assert!(
            base["C"].data().iter().all(|&v| v == 0.0),
            "the callers' output binding must never be mutated"
        );
    }

    #[test]
    fn batched_metadata_mismatch_is_reported() {
        let stmt = parse("C[i] = A[i]").unwrap();
        let metas: BTreeMap<String, TensorMeta> = [
            ("C".to_string(), TensorMeta::new(vec![8], DType::F32)),
            ("A".to_string(), TensorMeta::new(vec![8], DType::F32)),
        ]
        .into_iter()
        .collect();
        let plan = build_plan(&stmt, &metas).unwrap();
        let op = compile_fused(&plan, &CodegenOptions::default()).unwrap();
        let ok: BTreeMap<String, Tensor> = [
            ("C".to_string(), Tensor::zeros(vec![8])),
            ("A".to_string(), Tensor::ones(vec![8])),
        ]
        .into_iter()
        .collect();
        let bad: BTreeMap<String, Tensor> = [
            ("C".to_string(), Tensor::zeros(vec![8])),
            ("A".to_string(), Tensor::ones(vec![16])),
        ]
        .into_iter()
        .collect();
        let err = run_fused_batch_with_cache(
            &op,
            &[&ok, &bad],
            &DeviceModel::rtx3090(),
            Mode::Execute,
            &LaunchOptions::default(),
            &ProgramCache::new(),
        )
        .unwrap_err();
        assert!(matches!(err, InductorError::Binding(_)));
    }

    #[test]
    fn missing_binding_is_reported() {
        let stmt = parse("C[i] = A[i]").unwrap();
        let metas: BTreeMap<String, TensorMeta> = [
            ("C".to_string(), TensorMeta::new(vec![8], DType::F32)),
            ("A".to_string(), TensorMeta::new(vec![8], DType::F32)),
        ]
        .into_iter()
        .collect();
        let plan = build_plan(&stmt, &metas).unwrap();
        let op = compile_fused(&plan, &CodegenOptions::default()).unwrap();
        let inputs: BTreeMap<String, Tensor> = [("C".to_string(), Tensor::zeros(vec![8]))]
            .into_iter()
            .collect();
        assert!(matches!(
            run_fused_with_cache(
                &op,
                &inputs,
                &DeviceModel::rtx3090(),
                Mode::Execute,
                &LaunchOptions::default(),
                ProgramCache::global(),
            ),
            Err(InductorError::Binding(_))
        ));
    }
}
