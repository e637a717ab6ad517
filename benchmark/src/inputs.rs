//! Seeded input generators. `--seed` is the only source of randomness:
//! the same seed gives the same tensors, and the program under test
//! receives only the tensors.
//!
//! Sparse patterns are drawn with an **exact** nonzero count (a shuffled
//! prefix, not a per-entry coin flip), so the amount of work an
//! operation does is the same at every seed and only the placement
//! moves. That keeps the seed-to-seed spread of the timing metrics
//! inside their bounds without hiding placement effects (padding,
//! coalescing, atomic conflicts still vary).

use insum::apps::{self, BoundApp};
use insum::Tensor;
use insum_formats::{BlockCoo, BlockGroupCoo, Coo};
use insum_tensor::{rand_normal, rand_uniform, DType};
use insum_workloads::equivariant::CgTensor;
use insum_workloads::pointcloud::{self, KernelMap, RoomSpec, VoxelScene};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Named tensor bindings of one request.
pub type Bindings = BTreeMap<String, Tensor>;

/// An independent generator per (seed, stream): adding a draw to one
/// generator never shifts the inputs of another.
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

pub fn bind(pairs: Vec<(&str, Tensor)>) -> Bindings {
    pairs.into_iter().map(|(n, t)| (n.to_string(), t)).collect()
}

/// A `rows × cols` matrix in which exactly `round(keep · blocks)` of the
/// `bm × bk` blocks are dense (values in `[0.25, 1)`, never zero) and the
/// rest are zero.
pub fn block_sparse_exact(
    rows: usize,
    cols: usize,
    bm: usize,
    bk: usize,
    keep: f64,
    rng: &mut SmallRng,
) -> Tensor {
    let (brows, bcols) = (rows / bm, cols / bk);
    let mut blocks: Vec<usize> = (0..brows * bcols).collect();
    blocks.shuffle(rng);
    let kept = ((brows * bcols) as f64 * keep).round().max(1.0) as usize;
    blocks.truncate(kept);
    blocks.sort_unstable();
    let mut data = vec![0.0f32; rows * cols];
    for blk in blocks {
        let (br, bc) = (blk / bcols, blk % bcols);
        for i in 0..bm {
            let row = (br * bm + i) * cols + bc * bk;
            for v in &mut data[row..row + bk] {
                *v = rng.gen_range(0.25..1.0);
            }
        }
    }
    Tensor::from_vec(vec![rows, cols], data).expect("length matches shape")
}

/// A structured SpMM in the paper's Fig. 7 configuration: an `n × n`
/// f16 matrix of 32×32 blocks, half of them kept, in BlockGroupCOO with
/// the paper's heuristic `g`, times a dense `n × cols` f16 `B`.
pub struct StructuredSpmm {
    pub dense: Tensor,
    pub format: BlockGroupCoo,
    pub b: Tensor,
}

/// BlockCOO, then BlockGroupCOO at the heuristic group size.
pub fn block_group_format(dense: &Tensor) -> (BlockCoo, BlockGroupCoo) {
    let bcoo = BlockCoo::from_dense(dense, 32, 32).expect("extents divide the block size");
    let g = insum_formats::heuristic::heuristic_group_size(&bcoo.block_occupancy());
    let format = BlockGroupCoo::from_block_coo(&bcoo, g).expect("g >= 1");
    (bcoo, format)
}

pub fn structured_spmm(seed: u64, n: usize, cols: usize) -> StructuredSpmm {
    let mut r = rng(seed, 1);
    let dense = block_sparse_exact(n, n, 32, 32, 0.5, &mut r).cast(DType::F16);
    let b = rand_uniform(vec![n, cols], -1.0, 1.0, &mut r).cast(DType::F16);
    let (_, format) = block_group_format(&dense);
    StructuredSpmm { dense, format, b }
}

/// Scatter-heavy COO SpMM: 512×512 with 16×16 blocks, 30 % kept
/// (78 592 nonzeros at every seed), B 512×32, f32.
pub fn coo_scatter(seed: u64) -> (Tensor, Coo, Tensor) {
    let mut r = rng(seed, 2);
    let dense = block_sparse_exact(512, 512, 16, 16, 0.3, &mut r);
    let coo = Coo::from_dense(&dense).expect("rank-2 matrix");
    let b = rand_uniform(vec![512, 32], -1.0, 1.0, &mut r);
    (dense, coo, b)
}

/// Slots per kernel-map group and per Clebsch-Gordan group.
pub const CONV_GROUP: usize = 3;
pub const CG_GROUP: usize = 8;

/// Point-cloud sparse convolution with the paper's pipeline (surface
/// samples every 10 cm, 5 cm voxels, 27 offsets grouped by 3) on a bare
/// alcove — the paper's `copyRoom` halved in width and depth, so one
/// run costs ≈ 17 ms of host time — with 16 → 16 channels. No
/// furniture: its random size would move the voxel count by ±5 % from
/// seed to seed, where the sampling jitter alone moves it by ±1 %.
pub fn pointcloud_conv(seed: u64) -> (VoxelScene, KernelMap, Tensor, Tensor) {
    let mut r = rng(seed, 3);
    let alcove = RoomSpec {
        name: "alcove",
        w: 2.0,
        d: 1.75,
        h: 3.0,
        furniture: 0,
    };
    let points = pointcloud::generate_points(&alcove, 0.10, &mut r);
    let scene = pointcloud::voxelize(&points, 0.05);
    let km = pointcloud::kernel_map(&scene, CONV_GROUP);
    let input = rand_normal(vec![scene.len(), 16], &mut r);
    let weight = rand_normal(vec![27, 16, 16], &mut r);
    (scene, km, input, weight)
}

/// Equivariant tensor product, l = 2, batch 32, u = w = 16.
pub fn equivariant_tp(seed: u64) -> (CgTensor, Tensor, Tensor, Tensor) {
    let mut r = rng(seed, 4);
    let cg = insum_workloads::equivariant::cg_tensor(2, CG_GROUP);
    let (batch, u, w) = (32, 16, 16);
    let x = rand_uniform(vec![batch, cg.dim, u], -1.0, 1.0, &mut r);
    let y = rand_uniform(vec![batch, cg.dim], -1.0, 1.0, &mut r);
    let wt = rand_uniform(vec![batch, cg.paths.len(), u, w], -0.5, 0.5, &mut r);
    (cg, x, y, wt)
}

pub const MATMUL: &str = "C[y,x] = A[y,r] * B[r,x]";

/// Dense 192³ matmul (the fully affine autotune subject).
pub fn dense_matmul(seed: u64) -> Bindings {
    let mut r = rng(seed, 5);
    let n = 192;
    bind(vec![
        ("C", Tensor::zeros(vec![n, n])),
        ("A", rand_uniform(vec![n, n], -1.0, 1.0, &mut r)),
        ("B", rand_uniform(vec![n, n], -1.0, 1.0, &mut r)),
    ])
}

/// Integer-valued operand in {-2, …, 2}: on this domain every
/// contraction order is bit-exact (see the `insum_planner` docs), so
/// chains can be checked against `chain_reference` for equality.
pub fn int_tensor(shape: Vec<usize>, rng: &mut SmallRng) -> Tensor {
    rand_uniform(shape, -2.49, 2.49, rng).map(f32::round)
}

pub const CHAIN4_SKEW: &str = "O[i,m] = A[i,j] * B[j,k] * C[k,l] * D[l,m]";
pub const ATTENTION_QKV: &str = "O[b,h,q,d] = Q[b,h,q,e] * K[b,h,k,e] * V[b,h,k,d]";

pub fn chain4_skew(seed: u64) -> Bindings {
    let mut r = rng(seed, 6);
    bind(vec![
        ("A", int_tensor(vec![384, 384], &mut r)),
        ("B", int_tensor(vec![384, 4], &mut r)),
        ("C", int_tensor(vec![4, 384], &mut r)),
        ("D", int_tensor(vec![384, 384], &mut r)),
    ])
}

pub fn attention_qkv(seed: u64) -> Bindings {
    let mut r = rng(seed, 7);
    bind(vec![
        ("Q", int_tensor(vec![2, 4, 64, 32], &mut r)),
        ("K", int_tensor(vec![2, 4, 64, 32], &mut r)),
        ("V", int_tensor(vec![2, 4, 64, 32], &mut r)),
    ])
}

/// One expression with its bindings — a statement or a chain — and
/// whether the workload compiles it with `InsumOptions::autotuned()`.
pub struct Case {
    pub name: &'static str,
    pub expr: &'static str,
    pub tensors: Bindings,
    pub tuned: bool,
    /// For a blocked SpMM, the dense `(A, B)` it was built from: the
    /// independent reference is then `A.matmul(B)`, which also checks
    /// the format conversion and costs a fraction of a second where
    /// `insum::eager` (a materialized gather) costs nine.
    pub dense_product: Option<(Tensor, Tensor)>,
}

impl Case {
    pub fn new(name: &'static str, expr: &'static str, tensors: Bindings) -> Case {
        Case {
            name,
            expr,
            tensors,
            tuned: false,
            dense_product: None,
        }
    }

    pub fn from_app(name: &'static str, app: BoundApp) -> Case {
        Case::new(name, app.expr, app.tensors)
    }

    pub fn tuned(mut self) -> Case {
        self.tuned = true;
        self
    }
}

pub fn spmm_case(s: &StructuredSpmm) -> Case {
    let mut case = Case::from_app("spmm", apps::spmm_block_group(&s.format, &s.b));
    case.dense_product = Some((s.dense.clone(), s.b.clone()));
    case
}

/// The sparse structures behind [`Irregular::cases`], kept for the
/// format-construction probe.
pub struct Irregular {
    pub coo_dense: Tensor,
    pub scene: VoxelScene,
    pub cases: Vec<Case>,
}

/// The three irregular paper kernels, in cycle order.
pub fn irregular(seed: u64) -> Irregular {
    let (coo_dense, coo, b) = coo_scatter(seed);
    let (scene, km, input, weight) = pointcloud_conv(seed);
    let (cg, x, y, w) = equivariant_tp(seed);
    Irregular {
        coo_dense,
        scene,
        cases: vec![
            Case::from_app("coo", apps::spmm_coo(&coo, &b)),
            Case::from_app("conv", apps::sparse_conv(&km, &input, &weight)),
            Case::from_app("tp", apps::equivariant_tp(&cg, &x, &y, &w)),
        ],
    }
}

/// The request kinds of `serve_small_mix`.
pub const SERVE_KINDS: usize = 5;
pub const SERVE_KIND_NAMES: [&str; SERVE_KINDS] =
    ["coo_spmm", "reduction", "hadamard", "matmul", "chain4"];
pub const SERVE_EXPRS: [&str; SERVE_KINDS] = [
    apps::SPMM_COO_EXPR,
    "R[i] = X[i,j]",
    "H[i,j] = X[i,j] * Y[i,j]",
    MATMUL,
    CHAIN4_SKEW,
];

/// One variant of one `serve_small_mix` request kind. Variants of a kind
/// have equal shapes and distinct contents.
pub fn serve_request(kind: usize, rng: &mut SmallRng) -> Bindings {
    match kind {
        // COO SpMM 64×64 with exactly 256 nonzeros, B 64×32.
        0 => {
            let mut cells: Vec<usize> = (0..64 * 64).collect();
            cells.shuffle(rng);
            cells.truncate(256);
            cells.sort_unstable();
            let entries: Vec<(usize, usize, f32)> = cells
                .into_iter()
                .map(|c| (c / 64, c % 64, rng.gen_range(0.25..1.0f32)))
                .collect();
            let coo = Coo::from_triplets(64, 64, &entries).expect("coordinates in bounds");
            let b = rand_uniform(vec![64, 32], -1.0, 1.0, rng);
            apps::spmm_coo(&coo, &b).tensors
        }
        1 => bind(vec![
            ("R", Tensor::zeros(vec![128])),
            ("X", rand_uniform(vec![128, 128], -1.0, 1.0, rng)),
        ]),
        2 => bind(vec![
            ("H", Tensor::zeros(vec![128, 128])),
            ("X", rand_uniform(vec![128, 128], -1.0, 1.0, rng)),
            ("Y", rand_uniform(vec![128, 128], -1.0, 1.0, rng)),
        ]),
        3 => bind(vec![
            ("C", Tensor::zeros(vec![64, 64])),
            ("A", rand_uniform(vec![64, 64], -1.0, 1.0, rng)),
            ("B", rand_uniform(vec![64, 64], -1.0, 1.0, rng)),
        ]),
        4 => bind(vec![
            ("A", int_tensor(vec![32, 64], rng)),
            ("B", int_tensor(vec![64, 8], rng)),
            ("C", int_tensor(vec![8, 64], rng)),
            ("D", int_tensor(vec![64, 32], rng)),
        ]),
        _ => unreachable!("serve request kinds are 0..SERVE_KINDS"),
    }
}

/// Equal content in fresh storage: every tensor of `bindings` rebuilt
/// from its values, so no handle is `ptr_eq` to the original.
pub fn fresh_storage(bindings: &Bindings) -> Bindings {
    bindings
        .iter()
        .map(|(name, t)| {
            let copy = Tensor::from_vec_with(t.shape().to_vec(), t.data().to_vec(), t.dtype())
                .expect("length matches shape");
            (name.clone(), copy)
        })
        .collect()
}
