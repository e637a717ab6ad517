//! Fused kernel code generation (§5.2.2–§5.2.3).
//!
//! One kernel is emitted per indirect Einsum: gathers, the contraction
//! (via `tl.dot` when a `(Y,R)×(R,X)` partition exists, otherwise scalar
//! multiply + `tl.sum`), and the scatter, all fused. Lane layouts follow
//! the paper's *lazy broadcasting*: every value tracks which roles (Y, R,
//! X) its block spans, and axes are inserted only when two values meet.
//! Eager mode reproduces stock Inductor's behaviour by paying
//! `tl.view`/`tl.trans` shared-memory traffic before every `tl.dot`
//! (Fig. 8b) and materializing broadcasts (Fig. 8a).

use crate::error::InductorError;
use crate::plan::{DimDesc, FactorDesc, FusionPlan, Role};
use crate::Result;
use insum_kernel::{BinOp, Kernel, KernelBuilder, Reg};
use std::collections::BTreeMap;

/// Codegen configuration — the ablation axes of paper Fig. 13.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenOptions {
    /// Pattern-match to `ops.dot` / `tl.dot` (Tensor Cores) when legal.
    pub tensor_cores: bool,
    /// Lazy broadcasting (§5.2.3); `false` pays eager reshape/transpose
    /// shared-memory traffic.
    pub lazy_broadcast: bool,
    /// Override the Y tile (rows); `None` = heuristic.
    pub yblock: Option<usize>,
    /// Override the X tile (columns); `None` = heuristic.
    pub xblock: Option<usize>,
    /// Override the R tile (reduction); `None` = heuristic.
    pub rblock: Option<usize>,
}

impl Default for CodegenOptions {
    fn default() -> CodegenOptions {
        CodegenOptions {
            tensor_cores: true,
            lazy_broadcast: true,
            yblock: None,
            xblock: None,
            rblock: None,
        }
    }
}

/// A compiled fused operation: the kernel plus its launch geometry.
#[derive(Debug, Clone)]
pub struct FusedOp {
    /// The generated kernel.
    pub kernel: Kernel,
    /// The fusion plan it was generated from.
    pub plan: FusionPlan,
    /// Launch grid `[x_tiles, grid_volume * y_tiles]`.
    pub grid: Vec<usize>,
    /// Chosen Y tile.
    pub yblock: usize,
    /// Chosen X tile.
    pub xblock: usize,
    /// Chosen R tile.
    pub rblock: usize,
    /// Whether the kernel reduces through `tl.dot`.
    pub uses_dot: bool,
}

impl FusedOp {
    /// How many of the grid's program instances are masked exactly like
    /// the first: along X and Y every tile but a ragged last one (the
    /// only tile, where one spans the extent), times the grid volume.
    /// These are the instances a probe of instance 0 speaks for.
    pub(crate) fn instances_masked_like_first(&self) -> usize {
        let (x, y) = (self.plan.x_extent(), self.plan.y_extent());
        let tiles = x.div_ceil(self.xblock).max(1) * y.div_ceil(self.yblock).max(1);
        let like_first = (x / self.xblock).max(1) * (y / self.yblock).max(1);
        self.grid.iter().product::<usize>() / tiles * like_first
    }
}

/// Smallest power of two `>= n` (1 for n = 0).
pub(crate) fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// A register tagged with the lane roles its block spans, in canonical
/// order Y < R < X. An empty role list is a scalar.
#[derive(Debug, Clone)]
struct Val {
    reg: Reg,
    roles: Vec<Role>,
}

impl Val {
    fn scalar(reg: Reg) -> Val {
        Val { reg, roles: vec![] }
    }
}

fn role_rank(r: Role) -> usize {
    match r {
        Role::Y => 0,
        Role::R => 1,
        Role::X => 2,
        Role::Grid => 3,
    }
}

fn union_roles(a: &[Role], b: &[Role]) -> Vec<Role> {
    let mut out = a.to_vec();
    for r in b {
        if !out.contains(r) {
            out.push(*r);
        }
    }
    out.sort_by_key(|r| role_rank(*r));
    out
}

struct Emitter {
    b: KernelBuilder,
    lazy: bool,
    yb: usize,
    xb: usize,
    rb: usize,
    params: BTreeMap<String, usize>,
    lanes: BTreeMap<String, Val>, // per-variable lane value (grid scalars and block lanes)
    masks: BTreeMap<Role, Val>,   // per-role lane mask, if the extent needs one
}

impl Emitter {
    fn lane_size(&self, role: Role) -> usize {
        match role {
            Role::Y => self.yb,
            Role::R => self.rb,
            Role::X => self.xb,
            Role::Grid => 1,
        }
    }

    /// Align `v` so its block axes appear exactly at the positions of
    /// `target` roles (inserting size-1 axes). With eager broadcasting the
    /// result is materialized to the full joint lane shape (charged).
    fn align(&mut self, v: &Val, target: &[Role]) -> Val {
        debug_assert!(v.roles.iter().all(|r| target.contains(r)));
        let mut reg = v.reg;
        if v.roles.len() != target.len() {
            // Scalars broadcast natively; only block values need axes.
            if !v.roles.is_empty() {
                for (axis, role) in target.iter().enumerate() {
                    if !v.roles.contains(role) {
                        reg = self.b.expand_dims(reg, axis);
                    }
                }
            }
            if !self.lazy {
                let shape: Vec<usize> = target.iter().map(|&r| self.lane_size(r)).collect();
                reg = self.b.broadcast(reg, shape);
            }
        }
        Val {
            reg,
            roles: target.to_vec(),
        }
    }

    /// Combine two values with a binary op, aligning roles lazily.
    fn combine(&mut self, op: BinOp, a: &Val, b: &Val) -> Val {
        let joint = union_roles(&a.roles, &b.roles);
        let aa = self.align(a, &joint);
        let bb = self.align(b, &joint);
        Val {
            reg: self.b.binary(op, aa.reg, bb.reg),
            roles: joint,
        }
    }

    /// The mask covering the given roles, if any role needs one. The
    /// result is aligned to the requested role order so it broadcasts
    /// against offset blocks spanning those roles.
    fn mask_for(&mut self, roles: &[Role]) -> Option<Val> {
        let needed: Vec<Val> = roles
            .iter()
            .filter_map(|r| self.masks.get(r).cloned())
            .collect();
        let mut iter = needed.into_iter();
        let first = iter.next()?;
        let mut acc = first;
        for m in iter {
            acc = self.combine(BinOp::And, &acc, &m);
        }
        Some(self.align(&acc, roles))
    }

    /// Build the element-offset value for an access with the given dims
    /// over a tensor of the given shape. Returns the offset and its roles.
    fn offsets(&mut self, dims: &[DimDesc], shape: &[usize]) -> Val {
        // Row-major strides.
        let mut strides = vec![1usize; shape.len()];
        for d in (0..shape.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * shape[d + 1];
        }
        let mut total: Option<Val> = None;
        for (d, dim) in dims.iter().enumerate() {
            let value = match dim {
                DimDesc::Dense(v) => self.lanes[v].clone(),
                DimDesc::Gathered {
                    meta,
                    meta_shape,
                    meta_vars,
                } => self.load_metadata(meta, meta_shape, meta_vars),
            };
            let contrib = if strides[d] == 1 {
                value
            } else {
                let s = self.b.constant(strides[d] as f64);
                let sv = Val::scalar(s);
                self.combine(BinOp::Mul, &value, &sv)
            };
            total = Some(match total {
                None => contrib,
                Some(t) => self.combine(BinOp::Add, &t, &contrib),
            });
        }
        total.expect("access has at least one dim")
    }

    /// Load a metadata tensor's value block (indexed by grid scalars plus
    /// at most one block-role class).
    fn load_metadata(&mut self, meta: &str, meta_shape: &[usize], meta_vars: &[String]) -> Val {
        let dims: Vec<DimDesc> = meta_vars
            .iter()
            .map(|v| DimDesc::Dense(v.clone()))
            .collect();
        let off = self.offsets(&dims, meta_shape);
        let mask = self.mask_for(&off.roles);
        let param = self.params[meta];
        let reg = self.b.load(param, off.reg, mask.map(|m| m.reg), 0.0);
        Val {
            reg,
            roles: off.roles,
        }
    }

    /// Load one factor's block for the current iteration.
    fn load_factor(&mut self, factor: &FactorDesc) -> Val {
        let off = self.offsets(&factor.dims, &factor.shape);
        let mask = self.mask_for(&off.roles);
        let param = self.params[&factor.tensor];
        let reg = self.b.load(param, off.reg, mask.map(|m| m.reg), 0.0);
        Val {
            reg,
            roles: off.roles,
        }
    }
}

/// Pick the default (pre-autotune) tile sizes.
fn default_blocks(
    plan: &FusionPlan,
    uses_dot: bool,
    opts: &CodegenOptions,
) -> (usize, usize, usize) {
    let clamp = |ext: usize, lo: usize, hi: usize| next_pow2(ext).clamp(lo, hi);
    let yb = opts.yblock.unwrap_or_else(|| {
        if plan.y_var.is_none() {
            1
        } else if uses_dot {
            clamp(plan.y_extent(), 16, 32)
        } else {
            clamp(plan.y_extent(), 1, 32)
        }
    });
    let xb = opts.xblock.unwrap_or_else(|| {
        if plan.x_var.is_none() {
            1
        } else if uses_dot {
            clamp(plan.x_extent(), 16, 32)
        } else {
            clamp(plan.x_extent(), 1, 64)
        }
    });
    let rb = opts.rblock.unwrap_or_else(|| {
        if plan.r_vars.is_empty() {
            1
        } else if uses_dot {
            clamp(plan.r_extent(), 16, 32)
        } else {
            clamp(plan.r_extent(), 1, 32)
        }
    });
    (yb, xb, rb)
}

/// Generate the fused kernel for a plan.
///
/// # Errors
///
/// Returns [`InductorError::Unsupported`] if a factor spans all three
/// block roles (cannot be loaded as a ≤2-D tile).
pub fn compile_fused(plan: &FusionPlan, opts: &CodegenOptions) -> Result<FusedOp> {
    let uses_dot = opts.tensor_cores && plan.tensor_core_partition();
    for f in &plan.factors {
        if plan.factor_roles(f).len() > 2 && uses_dot {
            return Err(InductorError::Unsupported(format!(
                "factor {:?} spans three block roles",
                f.tensor
            )));
        }
    }
    let (yb, xb, rb) = default_blocks(plan, uses_dot, opts);

    let mut b = KernelBuilder::new(&format!("insum_{}", plan.output.tensor.to_lowercase()));
    // Parameter declarations in plan order; the output is written.
    let mut params = BTreeMap::new();
    for name in &plan.param_order {
        let idx = if name == &plan.output.tensor {
            b.output(name)
        } else {
            b.input(name)
        };
        params.insert(name.clone(), idx);
    }

    let mut e = Emitter {
        b,
        lazy: opts.lazy_broadcast,
        yb,
        xb,
        rb,
        params,
        lanes: BTreeMap::new(),
        masks: BTreeMap::new(),
    };

    // ------------------------------------------------------------------
    // Prologue: grid decomposition and lane construction.
    // ------------------------------------------------------------------
    let x_ext = plan.x_extent();
    let y_ext = plan.y_extent();
    let x_tiles = x_ext.div_ceil(xb).max(1);
    let y_tiles = y_ext.div_ceil(yb).max(1);

    if plan.x_var.is_some() {
        let pid0 = e.b.program_id(0);
        let xb_c = e.b.constant(xb as f64);
        let base = e.b.binary(BinOp::Mul, pid0, xb_c);
        let lanes = e.b.arange(xb);
        let x = e.b.binary(BinOp::Add, base, lanes);
        let xv = Val {
            reg: x,
            roles: vec![Role::X],
        };
        if !x_ext.is_multiple_of(xb) {
            let ext = e.b.constant(x_ext as f64);
            let m = e.b.binary(BinOp::Lt, x, ext);
            e.masks.insert(
                Role::X,
                Val {
                    reg: m,
                    roles: vec![Role::X],
                },
            );
        }
        e.lanes
            .insert(plan.x_var.clone().expect("x_var present"), xv);
    }

    // pid1 encodes (grid vars..., y_tile): y_tile fastest.
    let pid1 = e.b.program_id(1);
    let mut rest = pid1;
    let y_tile = if plan.y_var.is_some() {
        let yt_c = e.b.constant(y_tiles as f64);
        let yt = e.b.binary(BinOp::Mod, rest, yt_c);
        rest = e.b.binary(BinOp::FloorDiv, rest, yt_c);
        Some(yt)
    } else {
        None
    };
    for var in plan.grid_vars.iter().rev() {
        let ext = plan.extent(var);
        let ext_c = e.b.constant(ext as f64);
        let v = e.b.binary(BinOp::Mod, rest, ext_c);
        rest = e.b.binary(BinOp::FloorDiv, rest, ext_c);
        e.lanes.insert(var.clone(), Val::scalar(v));
    }
    if let (Some(yt), Some(y_var)) = (y_tile, plan.y_var.clone()) {
        let yb_c = e.b.constant(yb as f64);
        let base = e.b.binary(BinOp::Mul, yt, yb_c);
        let lanes = e.b.arange(yb);
        let y = e.b.binary(BinOp::Add, base, lanes);
        if !y_ext.is_multiple_of(yb) {
            let ext = e.b.constant(y_ext as f64);
            let m = e.b.binary(BinOp::Lt, y, ext);
            e.masks.insert(
                Role::Y,
                Val {
                    reg: m,
                    roles: vec![Role::Y],
                },
            );
        }
        e.lanes.insert(
            y_var,
            Val {
                reg: y,
                roles: vec![Role::Y],
            },
        );
    }

    // ------------------------------------------------------------------
    // Reduction loop (if any) and the contraction body.
    // ------------------------------------------------------------------
    let r_total = plan.r_extent();
    let has_loop = !plan.r_vars.is_empty();

    // Accumulator roles: the non-R roles spanned by the factors (plus
    // whatever the output needs is aligned at store time).
    let mut acc_roles: Vec<Role> = vec![];
    for f in &plan.factors {
        for r in plan.factor_roles(f) {
            if r != Role::R && !acc_roles.contains(&r) {
                acc_roles.push(r);
            }
        }
    }
    acc_roles.sort_by_key(|r| role_rank(*r));

    let acc = if has_loop {
        let shape: Vec<usize> = acc_roles.iter().map(|&r| e.lane_size(r)).collect();
        Some(Val {
            reg: e.b.full(shape, 0.0),
            roles: acc_roles.clone(),
        })
    } else {
        None
    };

    let emit_body = |e: &mut Emitter| -> Result<Val> {
        if uses_dot {
            // Partition factors into the (Y,R) and (R,X) dot operands.
            let mut a_side: Option<Val> = None;
            let mut b_side: Option<Val> = None;
            for f in &plan.factors {
                let roles = plan.factor_roles(f);
                let v = e.load_factor(f);
                let to_b = roles.contains(&Role::X);
                let slot = if to_b { &mut b_side } else { &mut a_side };
                *slot = Some(match slot.take() {
                    None => v,
                    Some(prev) => e.combine(BinOp::Mul, &prev, &v),
                });
            }
            let a_full = {
                let v = a_side.ok_or_else(|| {
                    InductorError::Unsupported("tensor-core path with empty A side".to_string())
                })?;
                let aligned = e.align(&v, &[Role::Y, Role::R]);
                // tl.dot needs a materialized 2-D tile.
                if aligned.roles.len() == v.roles.len() && v.roles == [Role::Y, Role::R] {
                    aligned
                } else {
                    let shape = vec![e.yb, e.rb];
                    Val {
                        reg: e.b.broadcast(aligned.reg, shape),
                        roles: vec![Role::Y, Role::R],
                    }
                }
            };
            let b_full = {
                let v = b_side.ok_or_else(|| {
                    InductorError::Unsupported("tensor-core path with empty B side".to_string())
                })?;
                let aligned = e.align(&v, &[Role::R, Role::X]);
                if aligned.roles.len() == v.roles.len() && v.roles == [Role::R, Role::X] {
                    aligned
                } else {
                    let shape = vec![e.rb, e.xb];
                    Val {
                        reg: e.b.broadcast(aligned.reg, shape),
                        roles: vec![Role::R, Role::X],
                    }
                }
            };
            let (a_reg, b_reg) = if e.lazy {
                (a_full.reg, b_full.reg)
            } else {
                // Eager broadcasting: pay the tl.view / tl.trans round
                // trips of Fig. 8b before the dot.
                let av = e.b.view(a_full.reg, vec![e.yb, e.rb]);
                let bt = e.b.trans(b_full.reg);
                let btt = e.b.trans(bt);
                (av, btt)
            };
            let d = e.b.dot(a_reg, b_reg);
            Ok(Val {
                reg: d,
                roles: vec![Role::Y, Role::X],
            })
        } else {
            // Scalar path: multiply everything, then tl.sum over R.
            let mut prod: Option<Val> = None;
            for f in &plan.factors {
                let v = e.load_factor(f);
                prod = Some(match prod {
                    None => v,
                    Some(p) => e.combine(BinOp::Mul, &p, &v),
                });
            }
            let p = prod.ok_or_else(|| {
                InductorError::Unsupported("statement with no factors".to_string())
            })?;
            if let Some(axis) = p.roles.iter().position(|&r| r == Role::R) {
                let s = e.b.sum(p.reg, axis);
                let mut roles = p.roles.clone();
                roles.remove(axis);
                Ok(Val { reg: s, roles })
            } else {
                Ok(p)
            }
        }
    };

    let result: Val = if has_loop {
        let iters = r_total.div_ceil(rb);
        let acc = acc.expect("accumulator exists when looping");
        let i = e.b.begin_loop(0, iters as i64, 1);
        // r lanes for this iteration.
        let rb_c = e.b.constant(rb as f64);
        let base = e.b.binary(BinOp::Mul, i, rb_c);
        let lanes = e.b.arange(rb);
        let r = e.b.binary(BinOp::Add, base, lanes);
        if !r_total.is_multiple_of(rb) {
            let ext = e.b.constant(r_total as f64);
            let m = e.b.binary(BinOp::Lt, r, ext);
            e.masks.insert(
                Role::R,
                Val {
                    reg: m,
                    roles: vec![Role::R],
                },
            );
        }
        // Decompose flattened r into its variables.
        let mut suffix = r_total;
        for (k, var) in plan.r_vars.iter().enumerate() {
            let ext = plan.extent(var);
            suffix /= ext;
            let mut lane = r;
            if suffix > 1 {
                let s_c = e.b.constant(suffix as f64);
                lane = e.b.binary(BinOp::FloorDiv, lane, s_c);
            }
            if k > 0 {
                let e_c = e.b.constant(ext as f64);
                lane = e.b.binary(BinOp::Mod, lane, e_c);
            }
            e.lanes.insert(
                var.clone(),
                Val {
                    reg: lane,
                    roles: vec![Role::R],
                },
            );
        }
        let body = emit_body(&mut e)?;
        let aligned = e.align(&body, &acc.roles);
        e.b.binary_into(acc.reg, BinOp::Add, acc.reg, aligned.reg);
        e.b.end_loop();
        // The R mask must not leak into the epilogue.
        e.masks.remove(&Role::R);
        acc
    } else {
        emit_body(&mut e)?
    };

    // ------------------------------------------------------------------
    // Epilogue: store or scatter the accumulator.
    // ------------------------------------------------------------------
    let out_off = e.offsets(&plan.output.dims.clone(), &plan.output.shape.clone());
    let joint = union_roles(&out_off.roles, &result.roles);
    let off_aligned = e.align(&out_off, &joint);
    let val_aligned = e.align(&result, &joint);
    let mask = e.mask_for(&joint);
    let out_param = e.params[&plan.output.tensor];
    if plan.scatter || plan.accumulate {
        e.b.atomic_add(
            out_param,
            off_aligned.reg,
            val_aligned.reg,
            mask.map(|m| m.reg),
        );
    } else {
        e.b.store(
            out_param,
            off_aligned.reg,
            val_aligned.reg,
            mask.map(|m| m.reg),
        );
    }

    let kernel = e.b.build();
    let grid_volume: usize = plan.grid_vars.iter().map(|v| plan.extent(v)).product();
    Ok(FusedOp {
        kernel,
        plan: plan.clone(),
        grid: vec![x_tiles, grid_volume * y_tiles],
        yblock: yb,
        xblock: xb,
        rblock: rb,
        uses_dot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::build_plan;
    use insum_graph::TensorMeta;
    use insum_lang::parse;
    use insum_tensor::DType;
    use std::collections::BTreeMap;

    fn metas(pairs: &[(&str, &[usize], DType)]) -> BTreeMap<String, TensorMeta> {
        pairs
            .iter()
            .map(|(n, s, d)| (n.to_string(), TensorMeta::new(s.to_vec(), *d)))
            .collect()
    }

    fn spmm_metas() -> BTreeMap<String, TensorMeta> {
        metas(&[
            ("C", &[16, 32], DType::F32),
            ("AM", &[40], DType::I32),
            ("AV", &[40], DType::F32),
            ("AK", &[40], DType::I32),
            ("B", &[16, 32], DType::F32),
        ])
    }

    #[test]
    fn dense_matmul_uses_dot() {
        let stmt = parse("C[y,x] = A[y,r] * B[r,x]").unwrap();
        let m = metas(&[
            ("C", &[64, 64], DType::F32),
            ("A", &[64, 32], DType::F32),
            ("B", &[32, 64], DType::F32),
        ]);
        let plan = build_plan(&stmt, &m).unwrap();
        let op = compile_fused(&plan, &CodegenOptions::default()).unwrap();
        assert!(op.uses_dot);
        op.kernel.validate().unwrap();
        let src = insum_kernel::print_kernel(&op.kernel);
        assert!(
            src.contains("tl.dot"),
            "kernel should use tensor cores:\n{src}"
        );
        assert!(src.contains("tl.store"), "dense output is a store");
        assert!(!src.contains("atomic"), "no scatter for dense assign");
    }

    #[test]
    fn coo_spmm_scatters_with_atomics() {
        let stmt = parse("C[AM[p],n] += AV[p] * B[AK[p],n]").unwrap();
        let plan = build_plan(&stmt, &spmm_metas()).unwrap();
        let op = compile_fused(&plan, &CodegenOptions::default()).unwrap();
        assert!(!op.uses_dot, "COO SpMM has no reduction lanes");
        let src = insum_kernel::print_kernel(&op.kernel);
        assert!(src.contains("tl.atomic_add"));
    }

    #[test]
    fn tensor_cores_can_be_disabled() {
        let stmt = parse("C[y,x] = A[y,r] * B[r,x]").unwrap();
        let m = metas(&[
            ("C", &[64, 64], DType::F32),
            ("A", &[64, 32], DType::F32),
            ("B", &[32, 64], DType::F32),
        ]);
        let plan = build_plan(&stmt, &m).unwrap();
        let opts = CodegenOptions {
            tensor_cores: false,
            ..Default::default()
        };
        let op = compile_fused(&plan, &opts).unwrap();
        assert!(!op.uses_dot);
        let src = insum_kernel::print_kernel(&op.kernel);
        assert!(!src.contains("tl.dot"));
        assert!(src.contains("tl.sum"), "scalar path reduces with tl.sum");
    }

    #[test]
    fn eager_broadcasting_pays_view_trans() {
        let stmt = parse("C[y,x] = A[y,r] * B[r,x]").unwrap();
        let m = metas(&[
            ("C", &[64, 64], DType::F32),
            ("A", &[64, 32], DType::F32),
            ("B", &[32, 64], DType::F32),
        ]);
        let plan = build_plan(&stmt, &m).unwrap();
        let lazy = compile_fused(&plan, &CodegenOptions::default()).unwrap();
        let eager = compile_fused(
            &plan,
            &CodegenOptions {
                lazy_broadcast: false,
                ..Default::default()
            },
        )
        .unwrap();
        let lazy_src = insum_kernel::print_kernel(&lazy.kernel);
        let eager_src = insum_kernel::print_kernel(&eager.kernel);
        assert!(
            !lazy_src.contains("tl.trans"),
            "lazy mode avoids transposes:\n{lazy_src}"
        );
        assert!(
            eager_src.contains("tl.trans"),
            "eager mode transposes:\n{eager_src}"
        );
        assert!(eager_src.contains("tl.view"));
    }

    #[test]
    fn grid_is_x_tiles_by_groups() {
        let stmt = parse("C[AM[p],bm,n] += AV[p,q,bm,bk] * B[AK[p,q],bk,n]").unwrap();
        let m = metas(&[
            ("C", &[4, 16, 64], DType::F32),
            ("AM", &[6], DType::I32),
            ("AV", &[6, 2, 16, 16], DType::F32),
            ("AK", &[6, 2], DType::I32),
            ("B", &[4, 16, 64], DType::F32),
        ]);
        let plan = build_plan(&stmt, &m).unwrap();
        let op = compile_fused(&plan, &CodegenOptions::default()).unwrap();
        assert!(op.uses_dot);
        // x tiles: 64/xb; second grid dim: 6 groups * y_tiles(16/yb = 1).
        assert_eq!(op.grid[1], 6);
        assert_eq!(op.grid[0], 64 / op.xblock);
    }

    #[test]
    fn block_overrides_respected() {
        let stmt = parse("C[y,x] = A[y,r] * B[r,x]").unwrap();
        let m = metas(&[
            ("C", &[64, 64], DType::F32),
            ("A", &[64, 32], DType::F32),
            ("B", &[32, 64], DType::F32),
        ]);
        let plan = build_plan(&stmt, &m).unwrap();
        let opts = CodegenOptions {
            yblock: Some(16),
            xblock: Some(16),
            rblock: Some(16),
            ..Default::default()
        };
        let op = compile_fused(&plan, &opts).unwrap();
        assert_eq!((op.yblock, op.xblock, op.rblock), (16, 16, 16));
        assert_eq!(op.grid, vec![4, 4]);
    }

    #[test]
    fn fig9_kernel_structure() {
        // C[D[y],x] += A[y,E[r]] * B[r,x] — the paper's Fig. 9 example.
        let stmt = parse("C[D[y],x] += A[y,E[r]] * B[r,x]").unwrap();
        let m = metas(&[
            ("C", &[64, 64], DType::F32),
            ("D", &[32], DType::I32),
            ("A", &[32, 128], DType::F32),
            ("E", &[32], DType::I32),
            ("B", &[32, 64], DType::F32),
        ]);
        let plan = build_plan(&stmt, &m).unwrap();
        let op = compile_fused(&plan, &CodegenOptions::default()).unwrap();
        assert!(op.uses_dot);
        let src = insum_kernel::print_kernel(&op.kernel);
        // Fully fused: gather (E), dot, scatter (D) in one kernel.
        assert!(src.contains("tl.load(E + "));
        assert!(src.contains("tl.load(D + "));
        assert!(src.contains("tl.dot"));
        assert!(src.contains("tl.atomic_add(C + "));
    }
}
