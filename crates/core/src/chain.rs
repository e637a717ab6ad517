//! Multi-operand contraction chains: planning, and the workspace that
//! threads temporaries between a plan's steps.
//!
//! [`plan`] turns an `ij,jk,kl->il`-style spec (or a dense multi-factor
//! statement such as `O[i,m] = A[i,j] * B[j,k] * C[k,m]`) into a
//! [`Compiled`] of several steps: the `insum_planner` searches a
//! contraction order (exact subset DP up to 12 operands, greedy beyond),
//! and every pairwise step is compiled by the same
//! [`Compiled::compile_step`] a single statement goes through — so each
//! step classifies onto the fast path, autotunes, launches through the
//! process-wide [`insum_inductor::ProgramCache`], and batches in the
//! serving engine like any hand-written pairwise einsum.
//!
//! Temporaries live in the [`Workspace`]: intermediates materialize into
//! zero-initialized F32 tensors that are dropped right after their last
//! consuming step (copy-on-write storage frees the buffer with the last
//! handle). For every step the workspace assembles the map that step
//! binds — its operands (chain inputs by their own names, temporaries by
//! planner-chosen names) and its output (fresh zeros for a temporary;
//! for the final step the caller's binding under `+=`, zeros under `=`).
//!
//! Steps whose output is rank-0 — or that consume a rank-0 temporary —
//! cannot be expressed in the statement language (`T[]` is not a legal
//! access); those are host steps ([`Workspace::host_step`]), evaluated
//! by the same pairwise evaluator the left-to-right reference oracle
//! uses, which keeps them bit-identical to the reference by construction.
//! Host steps contribute no simulated launches to the profile.
//!
//! Chains require F32 operands: the executor's bit-identity contract
//! against [`chain_reference`] (see the planner crate docs for the
//! integer-valued exactness domain) does not survive F16 rounding at
//! step boundaries.

use crate::compile::{Compiled, Step};
use crate::options::InsumOptions;
use crate::{InsumError, Result};
use insum_gpu::{Mode, Profile};
use insum_lang::AssignOp;
use insum_planner::{
    eval_pairwise, reference_chain, ChainSpec, ContractionPlan, OrderStrategy, PlanStep,
    PlannerError, Source,
};
use insum_tensor::{DType, Tensor};
use std::collections::BTreeMap;

/// The workspace layout of a planned chain: the plan plus the names its
/// temporaries bind under in the per-step maps.
pub(crate) struct Workspace {
    pub(crate) plan: ContractionPlan,
    temp_names: Vec<String>,
}

impl Workspace {
    fn new(plan: ContractionPlan) -> Workspace {
        let mut temp_names = vec![String::new(); plan.temp_count];
        for step in &plan.steps {
            if let Some(k) = step.out_temp {
                temp_names[k] = step.out_name.clone();
            }
        }
        Workspace { plan, temp_names }
    }

    fn name_of(&self, src: Source) -> &String {
        match src {
            Source::Input(i) => &self.plan.spec.operands[i].name,
            Source::Temp(k) => &self.temp_names[k],
        }
    }

    /// Bindings for one step: its operands (chain inputs from `user`,
    /// temporaries from `live`) and its output.
    pub(crate) fn step_bindings(
        &self,
        step: &PlanStep,
        user: &BTreeMap<String, Tensor>,
        live: &[Option<Tensor>],
    ) -> Result<BTreeMap<String, Tensor>> {
        let mut map = BTreeMap::new();
        for src in std::iter::once(step.lhs).chain(step.rhs) {
            let name = self.name_of(src);
            let tensor = match src {
                Source::Input(_) => user
                    .get(name)
                    .cloned()
                    .ok_or_else(|| InsumError::MissingTensor(name.clone()))?,
                Source::Temp(k) => live[k]
                    .clone()
                    .expect("temporary produced by an earlier step"),
            };
            map.insert(name.clone(), tensor);
        }
        // The final step's output binding is the user tensor for `+=`
        // chains (accumulation base), fresh zeros otherwise — `=` chains
        // always yield the pure chain value, whatever the caller bound.
        let spec = &self.plan.spec;
        let out = if step.out_temp.is_none() && spec.op == AssignOp::Accumulate {
            user.get(&spec.output_name)
                .cloned()
                .ok_or_else(|| InsumError::MissingTensor(spec.output_name.clone()))?
        } else {
            Tensor::zeros(step.out_shape.clone())
        };
        map.insert(step.out_name.clone(), out);
        Ok(map)
    }

    /// Evaluate host step `index` over its [`Workspace::step_bindings`].
    pub(crate) fn host_step(
        &self,
        index: usize,
        tensors: &BTreeMap<String, Tensor>,
        mode: Mode,
    ) -> Result<Tensor> {
        let step = &self.plan.steps[index];
        let base = &tensors[&step.out_name];
        // Analytic: values are never read (dense costs are
        // value-independent), so hand back the unmodified output binding.
        if mode == Mode::Analytic {
            return Ok(base.clone());
        }
        let value = eval_pairwise(
            &step.einsum_spec,
            &tensors[self.name_of(step.lhs)],
            step.rhs.map(|src| &tensors[self.name_of(src)]),
        )?;
        if step.out_temp.is_none() && self.plan.spec.op == AssignOp::Accumulate {
            add(base, &value)
        } else {
            Ok(value)
        }
    }
}

/// Elementwise sum (the `+=` accumulation base for host-evaluated final
/// steps).
fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    debug_assert_eq!(a.shape(), b.shape());
    // `contiguous_data`, not `data`: either side may be a strided view
    // (a fast-path transpose output fed back in as the `+=` base).
    let (av, bv) = (a.contiguous_data(), b.contiguous_data());
    let data = av.iter().zip(bv.iter()).map(|(x, y)| x + y).collect();
    Ok(Tensor::from_vec(a.shape().to_vec(), data)?)
}

/// Parse a chain from either accepted form: an `ij,jk,kl->il` spec
/// (operands named `op0`, `op1`, …, output `out`) or a dense
/// multi-factor statement.
fn parse_chain(expression: &str) -> Result<ChainSpec> {
    if expression.contains("->") {
        Ok(ChainSpec::parse(expression)?)
    } else {
        let stmt = insum_lang::parse(expression)?;
        Ok(ChainSpec::from_statement(&stmt)?)
    }
}

/// True when `expression` should route through the contraction planner:
/// spec form (`->`), or a dense statement with three or more factors
/// that the planner supports. Two-factor statements stay on the
/// single-kernel path — the planner could only replay them unchanged —
/// and anything with indirection or diagonals is the fused pipeline's
/// territory.
pub fn is_chain_expression(expression: &str) -> bool {
    if expression.contains("->") {
        return true;
    }
    match insum_lang::parse(expression) {
        Ok(stmt) => stmt.factors.len() >= 3 && ChainSpec::from_statement(&stmt).is_ok(),
        Err(_) => false,
    }
}

/// Plan and compile a contraction chain with the default
/// [`OrderStrategy::Auto`] order search.
///
/// `tensors` binds every operand by name (`op0`, `op1`, … / `out` for
/// spec-form chains); shapes select the order, and the data feeds
/// per-step autotuning when enabled.
///
/// # Errors
///
/// Parsing/planning errors ([`InsumError::Planner`]), a missing or
/// non-F32 operand, an output binding with the wrong shape, or any
/// per-step compilation error.
pub fn plan(
    expression: &str,
    tensors: &BTreeMap<String, Tensor>,
    options: &InsumOptions,
) -> Result<Compiled> {
    plan_with_strategy(expression, tensors, options, OrderStrategy::Auto)
}

/// [`plan`] with an explicit contraction-order strategy (the benchmarks
/// compare [`OrderStrategy::LeftToRight`] against the searched orders).
///
/// # Errors
///
/// Same conditions as [`plan`].
pub fn plan_with_strategy(
    expression: &str,
    tensors: &BTreeMap<String, Tensor>,
    options: &InsumOptions,
    strategy: OrderStrategy,
) -> Result<Compiled> {
    options.validate()?;
    let start = std::time::Instant::now();
    let spec = parse_chain(expression)?;
    let mut shapes = Vec::with_capacity(spec.operands.len());
    for op in &spec.operands {
        let t = tensors
            .get(&op.name)
            .ok_or_else(|| InsumError::MissingTensor(op.name.clone()))?;
        if t.dtype() != DType::F32 {
            return Err(PlannerError::Unsupported(format!(
                "chain planning requires F32 operands; {:?} is {:?}",
                op.name,
                t.dtype()
            ))
            .into());
        }
        shapes.push(t.shape().to_vec());
    }
    let plan = ContractionPlan::new(spec, &shapes, strategy)?;
    if let Some(out) = tensors.get(&plan.spec.output_name) {
        if out.shape() != plan.output_shape.as_slice() {
            return Err(PlannerError::Shape(format!(
                "output {:?} has shape {:?} but the chain produces {:?}",
                plan.spec.output_name,
                out.shape(),
                plan.output_shape
            ))
            .into());
        }
        if out.dtype() != DType::F32 {
            return Err(PlannerError::Unsupported(format!(
                "chain planning requires an F32 output; {:?} is {:?}",
                plan.spec.output_name,
                out.dtype()
            ))
            .into());
        }
    } else if plan.spec.op == AssignOp::Accumulate {
        return Err(InsumError::MissingTensor(plan.spec.output_name.clone()));
    }
    // Compile each device step against its real operand bindings (zeros
    // stand in for workspace temporaries: shapes drive lowering, and
    // autotuning's analytic launches never read values).
    let workspace = Workspace::new(plan);
    let mut compiled = Compiled::new(expression, options);
    let mut live: Vec<Option<Tensor>> = vec![None; workspace.plan.temp_count];
    for step in &workspace.plan.steps {
        if step.host {
            compiled.steps.push(Step::Host);
        } else {
            let bindings = workspace.step_bindings(step, tensors, &live)?;
            compiled.compile_step(&insum_lang::parse(&step.expression)?, &bindings)?;
        }
        if let Some(k) = step.out_temp {
            live[k] = Some(Tensor::zeros(step.out_shape.clone()));
        }
    }
    compiled.workspace = Some(workspace);
    compiled.compile_seconds = start.elapsed().as_secs_f64();
    Ok(compiled)
}

/// Plan, compile, and execute a chain with default options — the
/// chain-level analogue of compiling with [`crate::insum`] and calling
/// [`Compiled::run`].
///
/// # Errors
///
/// Same conditions as [`plan`] plus execution errors.
pub fn run_chain(
    expression: &str,
    tensors: &BTreeMap<String, Tensor>,
) -> Result<(Tensor, Profile)> {
    plan(expression, tensors, &InsumOptions::default())?.run(tensors)
}

/// The bit-identity oracle: evaluate `expression` with the naive
/// left-to-right pairwise reference (f64 step accumulation, no device
/// pipeline), honoring `+=` by adding the output binding. On
/// integer-valued data every planned order must match this exactly; see
/// the planner crate docs for the exactness domain.
///
/// # Errors
///
/// Parsing/shape errors, or a missing operand binding.
pub fn chain_reference(expression: &str, tensors: &BTreeMap<String, Tensor>) -> Result<Tensor> {
    let spec = parse_chain(expression)?;
    let operands: Vec<&Tensor> = spec
        .operands
        .iter()
        .map(|op| {
            tensors
                .get(&op.name)
                .ok_or_else(|| InsumError::MissingTensor(op.name.clone()))
        })
        .collect::<Result<_>>()?;
    let value = reference_chain(&spec, &operands)?;
    if spec.op == AssignOp::Accumulate {
        let base = tensors
            .get(&spec.output_name)
            .ok_or_else(|| InsumError::MissingTensor(spec.output_name.clone()))?;
        add(base, &value)
    } else {
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insum_tensor::einsum;

    /// Deterministic integer-valued tensor in {-2, …, 2} (the planner's
    /// exactness domain: every contraction order is bit-exact).
    fn int_tensor(shape: Vec<usize>, seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9e37_79b9).max(1);
        Tensor::from_fn(shape, |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 5) as f32 - 2.0
        })
    }

    fn chain3() -> BTreeMap<String, Tensor> {
        [
            ("A".to_string(), int_tensor(vec![6, 5], 1)),
            ("B".to_string(), int_tensor(vec![5, 7], 2)),
            ("C".to_string(), int_tensor(vec![7, 4], 3)),
            ("O".to_string(), Tensor::zeros(vec![6, 4])),
        ]
        .into_iter()
        .collect()
    }

    const CHAIN3: &str = "O[i,l] = A[i,j] * B[j,k] * C[k,l]";

    #[test]
    fn planned_chain_matches_reference_and_einsum() {
        let tensors = chain3();
        let (got, profile) = run_chain(CHAIN3, &tensors).unwrap();
        let want = chain_reference(CHAIN3, &tensors).unwrap();
        assert_eq!(got.data(), want.data());
        let direct = einsum(
            "ij,jk,kl->il",
            &[&tensors["A"], &tensors["B"], &tensors["C"]],
        )
        .unwrap();
        assert_eq!(got.data(), direct.data());
        assert_eq!(profile.launches(), 2, "two pairwise device steps");
    }

    #[test]
    fn spec_form_binds_positional_operand_names() {
        let tensors: BTreeMap<String, Tensor> = [
            ("op0".to_string(), int_tensor(vec![4, 3], 4)),
            ("op1".to_string(), int_tensor(vec![3, 5], 5)),
            ("op2".to_string(), int_tensor(vec![5, 2], 6)),
        ]
        .into_iter()
        .collect();
        let (got, _) = run_chain("ij,jk,kl->il", &tensors).unwrap();
        let want = chain_reference("ij,jk,kl->il", &tensors).unwrap();
        assert_eq!(got.data(), want.data());
        assert_eq!(got.shape(), &[4, 2]);
    }

    #[test]
    fn accumulate_adds_into_the_output_binding() {
        let mut tensors = chain3();
        tensors.insert("O".to_string(), int_tensor(vec![6, 4], 9));
        let expr = "O[i,l] += A[i,j] * B[j,k] * C[k,l]";
        let (got, _) = run_chain(expr, &tensors).unwrap();
        let want = chain_reference(expr, &tensors).unwrap();
        assert_eq!(got.data(), want.data());
        // And the reference itself is base + pure value.
        let pure = chain_reference(CHAIN3, &tensors).unwrap();
        let base = &tensors["O"];
        for ((g, b), p) in got.data().iter().zip(base.data()).zip(pure.data()) {
            assert_eq!(*g, b + p);
        }
    }

    #[test]
    fn accumulate_without_output_binding_is_missing_tensor() {
        let mut tensors = chain3();
        tensors.remove("O");
        assert!(matches!(
            plan(
                "O[i,l] += A[i,j] * B[j,k] * C[k,l]",
                &tensors,
                &InsumOptions::default()
            ),
            Err(InsumError::MissingTensor(_))
        ));
        // Assign-form chains do not need the binding at all.
        assert!(run_chain(CHAIN3, &tensors).is_ok());
    }

    #[test]
    fn non_f32_operands_are_rejected() {
        let mut tensors = chain3();
        let f16 = tensors["B"].cast(DType::F16);
        tensors.insert("B".to_string(), f16);
        assert!(matches!(
            plan(CHAIN3, &tensors, &InsumOptions::default()),
            Err(InsumError::Planner(PlannerError::Unsupported(_)))
        ));
    }

    #[test]
    fn wrong_output_shape_is_rejected() {
        let mut tensors = chain3();
        tensors.insert("O".to_string(), Tensor::zeros(vec![6, 5]));
        assert!(matches!(
            plan(CHAIN3, &tensors, &InsumOptions::default()),
            Err(InsumError::Planner(PlannerError::Shape(_)))
        ));
    }

    #[test]
    fn run_batch_matches_serial_runs_bit_for_bit() {
        let base = chain3();
        let requests: Vec<BTreeMap<String, Tensor>> = (0..3)
            .map(|r| {
                let mut t = base.clone();
                t.insert("B".to_string(), int_tensor(vec![5, 7], 20 + r));
                t
            })
            .collect();
        let chain = plan(CHAIN3, &requests[0], &InsumOptions::default()).unwrap();
        let serial: Vec<(Tensor, Profile)> =
            requests.iter().map(|r| chain.run(r).unwrap()).collect();
        let refs: Vec<&BTreeMap<String, Tensor>> = requests.iter().collect();
        let batched = chain.run_batch(&refs).unwrap();
        for ((got_t, got_p), (want_t, want_p)) in batched.iter().zip(&serial) {
            assert_eq!(got_t.data(), want_t.data());
            assert_eq!(got_p, want_p);
        }
    }

    #[test]
    fn analytic_time_agrees_with_execute_profile() {
        let tensors = chain3();
        let chain = plan(CHAIN3, &tensors, &InsumOptions::default()).unwrap();
        let analytic = chain.time(&tensors).unwrap();
        let (_, executed) = chain.run(&tensors).unwrap();
        assert_eq!(analytic.total_time(), executed.total_time());
        assert_eq!(analytic.launches(), executed.launches());
    }

    #[test]
    fn scalar_output_chain_runs_on_the_host() {
        let tensors: BTreeMap<String, Tensor> = [
            ("op0".to_string(), int_tensor(vec![3, 4], 7)),
            ("op1".to_string(), int_tensor(vec![3, 4], 8)),
        ]
        .into_iter()
        .collect();
        let chain = plan("ij,ij->", &tensors, &InsumOptions::default()).unwrap();
        assert_eq!(chain.device_step_count(), 0);
        let (got, profile) = chain.run(&tensors).unwrap();
        let want = einsum("ij,ij->", &[&tensors["op0"], &tensors["op1"]]).unwrap();
        assert_eq!(got.data(), want.data());
        assert_eq!(profile.launches(), 0, "host steps launch nothing");
    }

    #[test]
    fn scalar_intermediate_chain_matches_reference() {
        let tensors: BTreeMap<String, Tensor> = [
            ("op0".to_string(), int_tensor(vec![16], 10)),
            ("op1".to_string(), int_tensor(vec![16], 11)),
            ("op2".to_string(), int_tensor(vec![6], 12)),
        ]
        .into_iter()
        .collect();
        for strategy in [
            OrderStrategy::LeftToRight,
            OrderStrategy::Greedy,
            OrderStrategy::Dp,
        ] {
            let chain =
                plan_with_strategy("i,i,j->j", &tensors, &InsumOptions::default(), strategy)
                    .unwrap();
            let (got, _) = chain.run(&tensors).unwrap();
            let want = chain_reference("i,i,j->j", &tensors).unwrap();
            assert_eq!(got.data(), want.data(), "{strategy:?}");
        }
    }

    #[test]
    fn chain_steps_classify_onto_the_fast_path() {
        // A spec-form transpose is a one-step chain whose device step
        // classifies `Transpose`: the output is a zero-copy stride view
        // of the operand, not an interpreter launch product.
        let tensors: BTreeMap<String, Tensor> = [("op0".to_string(), int_tensor(vec![4, 6], 21))]
            .into_iter()
            .collect();
        let chain = plan("ij->ji", &tensors, &InsumOptions::default()).unwrap();
        let (got, _) = chain.run(&tensors).unwrap();
        let want = chain_reference("ij->ji", &tensors).unwrap();
        assert_eq!(*got.contiguous_data(), *want.contiguous_data());
        assert!(
            got.shares_storage(&tensors["op0"]),
            "transpose step returned a view, no bytes moved"
        );
    }

    #[test]
    fn is_chain_expression_routes_correctly() {
        assert!(is_chain_expression("ij,jk,kl->il"));
        assert!(is_chain_expression("ij->ji"));
        assert!(is_chain_expression(CHAIN3));
        // Pairwise statements stay on the single-kernel path.
        assert!(!is_chain_expression("C[i,k] = A[i,j] * B[j,k]"));
        // Indirection is the fused pipeline's territory, whatever the
        // factor count.
        assert!(!is_chain_expression("C[M[p],n] = V[p] * B[K[p],n] * W[n]"));
        assert!(!is_chain_expression("C[i] ?= A[i]"));
    }

    #[test]
    fn strategies_order_costs_dp_le_greedy_le_ltr() {
        let tensors: BTreeMap<String, Tensor> = [
            ("op0".to_string(), int_tensor(vec![32, 32], 13)),
            ("op1".to_string(), int_tensor(vec![32, 2], 14)),
            ("op2".to_string(), int_tensor(vec![2, 32], 15)),
            ("op3".to_string(), int_tensor(vec![32, 32], 16)),
        ]
        .into_iter()
        .collect();
        let opts = InsumOptions::default();
        let expr = "ij,jk,kl,lm->im";
        let ltr = plan_with_strategy(expr, &tensors, &opts, OrderStrategy::LeftToRight).unwrap();
        let greedy = plan_with_strategy(expr, &tensors, &opts, OrderStrategy::Greedy).unwrap();
        let dp = plan_with_strategy(expr, &tensors, &opts, OrderStrategy::Dp).unwrap();
        let flops = |chain: &Compiled| chain.plan().expect("planned").total_flops;
        assert!(flops(&dp) <= flops(&greedy));
        assert!(flops(&greedy) <= flops(&ltr));
        assert!(flops(&dp) < flops(&ltr), "skew matters");
        // All three agree bit-for-bit on integer data.
        let want = chain_reference(expr, &tensors).unwrap();
        for chain in [&ltr, &greedy, &dp] {
            let (got, _) = chain.run(&tensors).unwrap();
            assert_eq!(got.data(), want.data());
        }
    }
}
