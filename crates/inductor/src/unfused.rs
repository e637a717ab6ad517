//! The stock-Inductor baseline: one kernel per FX node (§5.2).
//!
//! Without the `ops.dot` extension, an indirect Einsum lowers to separate
//! gather, matmul-template, and scatter kernels with every intermediate
//! materialized in DRAM — exactly the configuration the paper's ablation
//! measures in Fig. 13 rows 1–3 ("PyTorch compiler separately launches
//! gather, matrix multiplication, and scatter operations").

use crate::cache::{cached_program, ProgramCache};
use crate::codegen::{compile_fused, CodegenOptions, FusedOp};
use crate::error::InductorError;
use crate::plan::{DimDesc, FactorDesc, FusionPlan, Role};
use crate::Result;
use insum_gpu::{DeviceModel, LaunchOptions, Mode, Profile};
use insum_graph::{Graph, Lowered, NodeId, Op};
use insum_kernel::{BinOp, Kernel, KernelBuilder};
use insum_tensor::{EinsumSpec, Tensor};
use std::collections::BTreeMap;

const LANES: usize = 256;

/// One execution step of an unfused pipeline.
#[derive(Debug, Clone)]
enum Step {
    /// Bind a named input tensor to a node.
    Bind { node: NodeId, name: String },
    /// Materialize a zeros tensor.
    Zeros { node: NodeId },
    /// Host-side reshape (metadata only; no kernel).
    Reshape {
        node: NodeId,
        input: NodeId,
        shape: Vec<usize>,
    },
    /// Host-side cast (dtype tag change + rounding; modelled as free—the
    /// real compiler folds casts into neighbouring kernels).
    Cast {
        node: NodeId,
        input: NodeId,
        dtype: insum_tensor::DType,
    },
    /// Launch a kernel. `args` bind node values positionally; the first
    /// argument is the (fresh or cloned) output.
    Launch {
        node: NodeId,
        kernel: Kernel,
        grid: Vec<usize>,
        /// Node whose value seeds the output tensor (`None` = zeros).
        seed: Option<NodeId>,
        /// Input nodes bound after the output parameter.
        reads: Vec<NodeId>,
    },
}

/// A compiled unfused pipeline.
#[derive(Debug, Clone)]
pub struct UnfusedOp {
    graph: Graph,
    steps: Vec<Step>,
    /// Number of kernels launched per run.
    pub kernel_count: usize,
}

/// Build a 1-D flattened lane block `pid*LANES + arange(LANES)` plus its
/// bounds mask (when `total` is not a multiple of the lane count).
fn flat_lanes(b: &mut KernelBuilder, total: usize) -> (usize, Option<usize>) {
    let pid = b.program_id(0);
    let width = b.constant(LANES as f64);
    let base = b.binary(BinOp::Mul, pid, width);
    let lanes = b.arange(LANES);
    let flat = b.binary(BinOp::Add, base, lanes);
    let mask = if !total.is_multiple_of(LANES) {
        let t = b.constant(total as f64);
        Some(b.binary(BinOp::Lt, flat, t))
    } else {
        None
    };
    (flat, mask)
}

/// Gather kernel: `DST[o, j, i] = SRC[o, IDX[j], i]` flattened.
fn gather_kernel(outer: usize, bound: usize, k: usize, inner: usize) -> (Kernel, Vec<usize>) {
    let total = outer * k * inner;
    let mut b = KernelBuilder::new("inductor_gather");
    let dst = b.output("DST");
    let src = b.input("SRC");
    let idx = b.input("IDX");
    let (flat, mask) = flat_lanes(&mut b, total);
    let inner_c = b.constant(inner as f64);
    let k_c = b.constant(k as f64);
    let i = b.binary(BinOp::Mod, flat, inner_c);
    let t = b.binary(BinOp::FloorDiv, flat, inner_c);
    let j = b.binary(BinOp::Mod, t, k_c);
    let o = b.binary(BinOp::FloorDiv, t, k_c);
    let jv = b.load(idx, j, mask, 0.0);
    let bi_c = b.constant((bound * inner) as f64);
    let o_off = b.binary(BinOp::Mul, o, bi_c);
    let j_off = b.binary(BinOp::Mul, jv, inner_c);
    let oj = b.binary(BinOp::Add, o_off, j_off);
    let src_off = b.binary(BinOp::Add, oj, i);
    let v = b.load(src, src_off, mask, 0.0);
    b.store(dst, flat, v, mask);
    (b.build(), vec![total.div_ceil(LANES)])
}

/// Scatter kernel: `DST[o, IDX[j], i] += SRC[o, j, i]` flattened over the
/// source.
fn scatter_kernel(outer: usize, bound: usize, k: usize, inner: usize) -> (Kernel, Vec<usize>) {
    let total = outer * k * inner;
    let mut b = KernelBuilder::new("inductor_scatter");
    let dst = b.output("DST");
    let src = b.input("SRC");
    let idx = b.input("IDX");
    let (flat, mask) = flat_lanes(&mut b, total);
    let inner_c = b.constant(inner as f64);
    let k_c = b.constant(k as f64);
    let i = b.binary(BinOp::Mod, flat, inner_c);
    let t = b.binary(BinOp::FloorDiv, flat, inner_c);
    let j = b.binary(BinOp::Mod, t, k_c);
    let o = b.binary(BinOp::FloorDiv, t, k_c);
    let jv = b.load(idx, j, mask, 0.0);
    let v = b.load(src, flat, mask, 0.0);
    let bi_c = b.constant((bound * inner) as f64);
    let o_off = b.binary(BinOp::Mul, o, bi_c);
    let j_off = b.binary(BinOp::Mul, jv, inner_c);
    let oj = b.binary(BinOp::Add, o_off, j_off);
    let dst_off = b.binary(BinOp::Add, oj, i);
    b.atomic_add(dst, dst_off, v, mask);
    (b.build(), vec![total.div_ceil(LANES)])
}

/// Pointwise add kernel: `DST[i] = A[i] + B[i]`.
fn add_kernel(total: usize) -> (Kernel, Vec<usize>) {
    let mut b = KernelBuilder::new("inductor_add");
    let dst = b.output("DST");
    let a = b.input("A");
    let bb = b.input("B");
    let (flat, mask) = flat_lanes(&mut b, total);
    let av = b.load(a, flat, mask, 0.0);
    let bv = b.load(bb, flat, mask, 0.0);
    let s = b.binary(BinOp::Add, av, bv);
    b.store(dst, flat, s, mask);
    (b.build(), vec![total.div_ceil(LANES)])
}

/// Build a dense-only fusion plan for an einsum node (the "template
/// matmul" kernel of stock Inductor).
fn einsum_plan(
    spec: &EinsumSpec,
    operand_shapes: &[Vec<usize>],
    out_shape: &[usize],
) -> Result<FusionPlan> {
    let mut extents: BTreeMap<String, usize> = BTreeMap::new();
    for (term, shape) in spec.inputs.iter().zip(operand_shapes) {
        for (&c, &d) in term.iter().zip(shape) {
            extents.insert(c.to_string(), d);
        }
    }
    let out_vars: Vec<String> = spec.output.iter().map(|c| c.to_string()).collect();
    let red_vars: Vec<String> = spec
        .reduction_indices()
        .iter()
        .map(|c| c.to_string())
        .collect();

    let x_var = out_vars.last().cloned();
    let y_var = out_vars.len().checked_sub(2).map(|i| out_vars[i].clone());
    let grid_vars: Vec<String> = out_vars
        .iter()
        .filter(|v| Some(*v) != x_var.as_ref() && Some(*v) != y_var.as_ref())
        .cloned()
        .collect();
    let mut roles: BTreeMap<String, Role> = BTreeMap::new();
    for v in &out_vars {
        let role = if Some(v) == x_var.as_ref() {
            Role::X
        } else if Some(v) == y_var.as_ref() {
            Role::Y
        } else {
            Role::Grid
        };
        roles.insert(v.clone(), role);
    }
    for v in &red_vars {
        roles.insert(v.clone(), Role::R);
    }

    let factors: Vec<FactorDesc> = spec
        .inputs
        .iter()
        .zip(operand_shapes)
        .enumerate()
        .map(|(i, (term, shape))| FactorDesc {
            tensor: format!("T{i}"),
            shape: shape.clone(),
            dims: term.iter().map(|c| DimDesc::Dense(c.to_string())).collect(),
        })
        .collect();
    let output = FactorDesc {
        tensor: "OUT".to_string(),
        shape: out_shape.to_vec(),
        dims: spec
            .output
            .iter()
            .map(|c| DimDesc::Dense(c.to_string()))
            .collect(),
    };
    let mut param_order = vec!["OUT".to_string()];
    param_order.extend(factors.iter().map(|f| f.tensor.clone()));
    Ok(FusionPlan {
        extents,
        roles,
        grid_vars,
        y_var,
        x_var,
        r_vars: red_vars,
        factors,
        output,
        accumulate: false,
        scatter: false,
        param_order,
    })
}

/// Compile a lowered graph into an unfused kernel pipeline.
///
/// # Errors
///
/// Returns [`InductorError::Unsupported`] for einsum specs with repeated
/// letters inside one term (not produced by the Insum rewriter).
pub fn compile_unfused(lowered: &Lowered, opts: &CodegenOptions) -> Result<UnfusedOp> {
    let graph = &lowered.graph;
    let mut steps = Vec::new();
    let mut kernel_count = 0;
    for node in graph.nodes() {
        match &node.op {
            Op::Placeholder { name } => {
                steps.push(Step::Bind {
                    node: node.id,
                    name: name.clone(),
                });
            }
            Op::Zeros => steps.push(Step::Zeros { node: node.id }),
            Op::Reshape { input, shape } => {
                steps.push(Step::Reshape {
                    node: node.id,
                    input: *input,
                    shape: shape.clone(),
                });
            }
            Op::Cast { input, dtype } => {
                steps.push(Step::Cast {
                    node: node.id,
                    input: *input,
                    dtype: *dtype,
                });
            }
            Op::IndexSelect { input, dim, index } => {
                let src = graph.node(*input);
                let k = graph.node(*index).shape[0];
                let outer: usize = src.shape[..*dim].iter().product();
                let bound = src.shape[*dim];
                let inner: usize = src.shape[*dim + 1..].iter().product();
                let (kernel, grid) = gather_kernel(outer, bound, k, inner);
                kernel_count += 1;
                steps.push(Step::Launch {
                    node: node.id,
                    kernel,
                    grid,
                    seed: None,
                    reads: vec![*input, *index],
                });
            }
            Op::IndexAdd {
                dest,
                dim,
                index,
                source,
            } => {
                let d = graph.node(*dest);
                let k = graph.node(*index).shape[0];
                let outer: usize = d.shape[..*dim].iter().product();
                let bound = d.shape[*dim];
                let inner: usize = d.shape[*dim + 1..].iter().product();
                let (kernel, grid) = scatter_kernel(outer, bound, k, inner);
                kernel_count += 1;
                steps.push(Step::Launch {
                    node: node.id,
                    kernel,
                    grid,
                    seed: Some(*dest),
                    reads: vec![*source, *index],
                });
            }
            Op::Add { lhs, rhs } => {
                let total: usize = node.shape.iter().product();
                let (kernel, grid) = add_kernel(total);
                kernel_count += 1;
                steps.push(Step::Launch {
                    node: node.id,
                    kernel,
                    grid,
                    seed: None,
                    reads: vec![*lhs, *rhs],
                });
            }
            Op::Einsum { spec, inputs } => {
                let parsed = EinsumSpec::parse(spec)
                    .map_err(|e| InductorError::Graph(insum_graph::GraphError::Tensor(e)))?;
                for term in &parsed.inputs {
                    let mut seen = std::collections::HashSet::new();
                    if term.iter().any(|c| !seen.insert(*c)) {
                        return Err(InductorError::Unsupported(
                            "repeated index letter within one einsum term".to_string(),
                        ));
                    }
                }
                let shapes: Vec<Vec<usize>> = inputs
                    .iter()
                    .map(|&i| graph.node(i).shape.clone())
                    .collect();
                let plan = einsum_plan(&parsed, &shapes, &node.shape)?;
                let fused: FusedOp = compile_fused(&plan, opts)?;
                kernel_count += 1;
                steps.push(Step::Launch {
                    node: node.id,
                    kernel: fused.kernel,
                    grid: fused.grid,
                    seed: None,
                    reads: inputs.clone(),
                });
            }
        }
    }
    Ok(UnfusedOp {
        graph: graph.clone(),
        steps,
        kernel_count,
    })
}

/// Execute an unfused pipeline, returning the output tensor and the
/// profile of every kernel launch. Pass [`ProgramCache::global`] for the
/// process-wide cache, or a private one for isolated hit/miss counters
/// (mirrors [`crate::run_fused_with_cache`]); results are identical for
/// every `launch_options` configuration.
///
/// # Errors
///
/// * [`InductorError::Binding`] for missing inputs.
/// * Simulator errors are propagated.
pub fn run_unfused_with_cache(
    op: &UnfusedOp,
    inputs: &BTreeMap<String, Tensor>,
    device: &DeviceModel,
    mode: Mode,
    launch_options: &LaunchOptions,
    cache: &ProgramCache,
) -> Result<(Tensor, Profile)> {
    let mut values: Vec<Option<Tensor>> = vec![None; op.graph.len()];
    let mut profile = Profile::new();
    for step in &op.steps {
        match step {
            Step::Bind { node, name } => {
                let t = inputs
                    .get(name)
                    .ok_or_else(|| InductorError::Binding(format!("missing tensor {name:?}")))?;
                // Gather strided views (e.g. fast-path transpose
                // outputs) into row-major storage; a no-op Arc clone
                // for contiguous bindings.
                values[*node] = Some(t.contiguous());
            }
            Step::Zeros { node } => {
                let n = op.graph.node(*node);
                values[*node] = Some(Tensor::zeros_with(n.shape.clone(), n.dtype));
            }
            Step::Reshape { node, input, shape } => {
                let t = values[*input].as_ref().expect("topological order");
                values[*node] = Some(
                    t.reshape(shape.clone())
                        .map_err(|e| InductorError::Graph(insum_graph::GraphError::Tensor(e)))?,
                );
            }
            Step::Cast { node, input, dtype } => {
                let t = values[*input].as_ref().expect("topological order");
                values[*node] = Some(t.cast(*dtype));
            }
            Step::Launch {
                node,
                kernel,
                grid,
                seed,
                reads,
            } => {
                let n = op.graph.node(*node);
                let mut out = match seed {
                    Some(s) => values[*s].as_ref().expect("topological order").clone(),
                    None => Tensor::zeros_with(n.shape.clone(), n.dtype),
                };
                let mut read_tensors: Vec<Tensor> = reads
                    .iter()
                    .map(|&r| values[r].as_ref().expect("topological order").clone())
                    .collect();
                let mut args: Vec<&mut Tensor> = Vec::with_capacity(1 + read_tensors.len());
                args.push(&mut out);
                args.extend(read_tensors.iter_mut());
                let lens: Vec<usize> = args.iter().map(|t| t.len()).collect();
                let dtypes: Vec<insum_tensor::DType> = args.iter().map(|t| t.dtype()).collect();
                let program = cached_program(cache, kernel, grid, &lens, &dtypes)?;
                let report = program.launch_with(&mut args, device, mode, launch_options)?;
                profile.push(report);
                values[*node] = Some(out);
            }
        }
    }
    let out = values[op.graph.output]
        .take()
        .ok_or_else(|| InductorError::Binding("graph output was never computed".to_string()))?;
    Ok((out, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use insum_graph::{execute, lower, TensorMeta};
    use insum_lang::parse;
    use insum_tensor::{rand_uniform, randint};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn check_unfused(expr: &str, binds: &[(&str, Tensor)]) -> Profile {
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
        let lowered = lower(&stmt, &metas).unwrap();
        let op = compile_unfused(&lowered, &CodegenOptions::default()).unwrap();
        let device = DeviceModel::rtx3090();
        let (got, profile) = run_unfused_with_cache(
            &op,
            &inputs,
            &device,
            Mode::Execute,
            &LaunchOptions::default(),
            ProgramCache::global(),
        )
        .unwrap();
        let want = execute(&lowered.graph, &inputs).unwrap();
        assert!(
            got.allclose(&want, 1e-3, 1e-3),
            "{expr}: unfused diverges from eager, max diff {:?}",
            got.max_abs_diff(&want)
        );
        profile
    }

    #[test]
    fn unfused_coo_spmm_launches_three_kernels() {
        let mut rng = SmallRng::seed_from_u64(11);
        let nnz = 23;
        let am = randint(vec![nnz], 8, &mut rng);
        let ak = randint(vec![nnz], 10, &mut rng);
        let av = rand_uniform(vec![nnz], -1.0, 1.0, &mut rng);
        let b = rand_uniform(vec![10, 16], -1.0, 1.0, &mut rng);
        let c = Tensor::zeros(vec![8, 16]);
        let profile = check_unfused(
            "C[AM[p],n] += AV[p] * B[AK[p],n]",
            &[("C", c), ("AM", am), ("AK", ak), ("AV", av), ("B", b)],
        );
        // gather (B rows), einsum, scatter -> 3 launches.
        assert_eq!(profile.launches(), 3);
    }

    #[test]
    fn unfused_dense_matmul_is_single_kernel() {
        let mut rng = SmallRng::seed_from_u64(12);
        let a = rand_uniform(vec![32, 16], -1.0, 1.0, &mut rng);
        let b = rand_uniform(vec![16, 32], -1.0, 1.0, &mut rng);
        let c = Tensor::zeros(vec![32, 32]);
        let profile = check_unfused("C[y,x] = A[y,r] * B[r,x]", &[("C", c), ("A", a), ("B", b)]);
        assert_eq!(profile.launches(), 1);
    }

    #[test]
    fn unfused_group_coo_matches_eager() {
        let mut rng = SmallRng::seed_from_u64(13);
        let (groups, g) = (9, 4);
        let am = randint(vec![groups], 6, &mut rng);
        let ak = randint(vec![groups, g], 12, &mut rng);
        let av = rand_uniform(vec![groups, g], -1.0, 1.0, &mut rng);
        let b = rand_uniform(vec![12, 8], -1.0, 1.0, &mut rng);
        let c = Tensor::zeros(vec![6, 8]);
        check_unfused(
            "C[AM[p],n] += AV[p,q] * B[AK[p,q],n]",
            &[("C", c), ("AM", am), ("AK", ak), ("AV", av), ("B", b)],
        );
    }

    #[test]
    fn unfused_moves_more_dram_than_fused() {
        use crate::codegen::compile_fused;
        use crate::plan::build_plan;
        use crate::runner::run_fused_with_cache;
        let mut rng = SmallRng::seed_from_u64(14);
        let (groups, g, bm, bk, n) = (8, 2, 16, 16, 64);
        let brows = 4;
        let am = randint(vec![groups], brows, &mut rng);
        let ak = randint(vec![groups, g], 4, &mut rng);
        let av = rand_uniform(vec![groups, g, bm, bk], -1.0, 1.0, &mut rng);
        let b = rand_uniform(vec![4, bk, n], -1.0, 1.0, &mut rng);
        let c = Tensor::zeros(vec![brows, bm, n]);
        let binds: Vec<(&str, Tensor)> =
            vec![("C", c), ("AM", am), ("AK", ak), ("AV", av), ("B", b)];
        let expr = "C[AM[p],bm,n] += AV[p,q,bm,bk] * B[AK[p,q],bk,n]";
        let stmt = parse(expr).unwrap();
        let metas: BTreeMap<String, TensorMeta> = binds
            .iter()
            .map(|(nm, t)| {
                (
                    nm.to_string(),
                    TensorMeta::new(t.shape().to_vec(), t.dtype()),
                )
            })
            .collect();
        let inputs: BTreeMap<String, Tensor> = binds
            .iter()
            .map(|(nm, t)| (nm.to_string(), t.clone()))
            .collect();
        let device = DeviceModel::rtx3090();

        let lowered = lower(&stmt, &metas).unwrap();
        let unfused = compile_unfused(&lowered, &CodegenOptions::default()).unwrap();
        let (launch, cache) = (LaunchOptions::default(), ProgramCache::global());
        let (got_u, profile_u) =
            run_unfused_with_cache(&unfused, &inputs, &device, Mode::Execute, &launch, cache)
                .unwrap();

        let plan = build_plan(&stmt, &metas).unwrap();
        let fused = compile_fused(&plan, &CodegenOptions::default()).unwrap();
        let (got_f, report_f) =
            run_fused_with_cache(&fused, &inputs, &device, Mode::Execute, &launch, cache).unwrap();

        assert!(got_u.allclose(&got_f, 1e-3, 1e-3));
        let u = profile_u.total_stats();
        assert!(
            u.dram_bytes() > report_f.stats.dram_bytes(),
            "materialized intermediates must cost DRAM: unfused {} vs fused {}",
            u.dram_bytes(),
            report_f.stats.dram_bytes()
        );
        assert!(
            profile_u.total_time() > report_f.time,
            "fusion should win end-to-end"
        );
    }
}
