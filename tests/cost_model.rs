//! Integration tests for the cost-model mechanisms the benchmarks rely
//! on, asserted at test sizes so regressions in the compiler or cost
//! model fail loudly. The shapes read off an artifact's own rows (Fig. 7's
//! group-size pick, Fig. 13's ladder) are asserted in
//! `crates/bench/tests/paper.rs` on `insum_bench::paper`'s rows.

use insum::apps;
use insum::{InsumOptions, Mode};
use insum_formats::{Bcsr, BlockGroupCoo, Coo, Csr, GroupCoo};
use insum_gpu::DeviceModel;
use insum_tensor::DType;
use insum_workloads::blocksparse::{block_sparse_dense, coo_from_degrees};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn sim(app: &apps::BoundApp, opts: &InsumOptions) -> f64 {
    app.compile(opts)
        .expect("compiles")
        .time(&app.tensors)
        .expect("simulates")
        .total_time()
}

#[test]
fn grouping_beats_plain_coo() {
    // Fig. 13 rows 1-2: grouping reduces scatters and metadata traffic.
    let mut rng = SmallRng::seed_from_u64(2);
    let a = block_sparse_dense(256, 256, 32, 32, 0.7, &mut rng);
    let coo = Coo::from_dense(&a).expect("matrix");
    let b = insum_tensor::rand_uniform(vec![256, 128], -1.0, 1.0, &mut rng);
    let gc = GroupCoo::from_coo(&coo, 16).expect("valid g");
    let opts = InsumOptions::default();
    let t_coo = sim(&apps::spmm_coo(&coo, &b), &opts);
    let t_gc = sim(&apps::spmm_group(&gc, &b), &opts);
    assert!(
        t_gc < t_coo,
        "grouping must win: group {t_gc:.3e} vs coo {t_coo:.3e}"
    );
}

#[test]
fn blocking_enables_tensor_cores_and_wins() {
    let mut rng = SmallRng::seed_from_u64(3);
    let a = block_sparse_dense(256, 256, 32, 32, 0.7, &mut rng).cast(DType::F16);
    let coo = Coo::from_dense(&a).expect("matrix");
    let b = insum_tensor::rand_uniform(vec![256, 128], -1.0, 1.0, &mut rng).cast(DType::F16);
    let gc = GroupCoo::from_coo(&coo, 16).expect("valid g");
    let bgc = BlockGroupCoo::from_dense(&a, 32, 32, 2).expect("blocked");
    let opts = InsumOptions::default();
    let unstructured = apps::spmm_group(&gc, &b);
    let structured = apps::spmm_block_group(&bgc, &b);
    assert!(!unstructured
        .compile(&opts)
        .expect("compiles")
        .uses_tensor_cores());
    assert!(structured
        .compile(&opts)
        .expect("compiles")
        .uses_tensor_cores());
    assert!(sim(&structured, &opts) < sim(&unstructured, &opts));
}

#[test]
fn hypersparse_favors_group_coo_over_bcsr() {
    // Fig. 10 mechanism: one nonzero block in a tall matrix; BCSR pays a
    // program per block row plus full row-pointer traffic and a full
    // output store.
    let mut dense = insum_tensor::Tensor::zeros(vec![2048, 64]);
    for i in 0..32 {
        for j in 0..32 {
            dense.set(&[i, j], 1.0);
        }
    }
    let dense = dense.cast(DType::F16);
    let mut rng = SmallRng::seed_from_u64(4);
    let b = insum_tensor::rand_uniform(vec![64, 64], -1.0, 1.0, &mut rng).cast(DType::F16);
    let bgc = BlockGroupCoo::from_dense(&dense, 32, 32, 1).expect("blocked");
    let t_ours = sim(&apps::spmm_block_group(&bgc, &b), &InsumOptions::default());
    let bcsr = Bcsr::from_dense(&dense, 32, 32).expect("blocked");
    let (_, p) =
        insum_baselines::spmm::torch_bsr_spmm(&bcsr, &b, &DeviceModel::rtx3090(), Mode::Analytic)
            .expect("runs");
    assert!(
        t_ours < p.total_time(),
        "hypersparse: ours {t_ours:.3e} must beat BCSR {:.3e}",
        p.total_time()
    );
}

#[test]
fn sputnik_beats_cusparse_only_on_skew() {
    let device = DeviceModel::rtx3090();
    let mut rng = SmallRng::seed_from_u64(5);
    // Uniform degrees: swizzling does not help.
    let uniform = coo_from_degrees(&vec![8; 512], 512, &mut rng);
    let b = insum_tensor::rand_uniform(vec![512, 32], -1.0, 1.0, &mut rng);
    let csr_u = Csr::from_coo(&uniform);
    let (_, pu_s) =
        insum_baselines::spmm::sputnik_spmm(&csr_u, &b, &device, Mode::Analytic).expect("runs");
    let (_, pu_c) =
        insum_baselines::spmm::cusparse_spmm(&csr_u, &b, &device, Mode::Analytic).expect("runs");
    let uniform_gain = pu_c.total_time() / pu_s.total_time();

    // One giant late row: swizzling helps a lot.
    let mut degrees = vec![2usize; 512];
    degrees[511] = 1024;
    let skewed = coo_from_degrees(&degrees, 2048, &mut rng);
    let b2 = insum_tensor::rand_uniform(vec![2048, 32], -1.0, 1.0, &mut rng);
    let csr_s = Csr::from_coo(&skewed);
    let (_, ps_s) =
        insum_baselines::spmm::sputnik_spmm(&csr_s, &b2, &device, Mode::Analytic).expect("runs");
    let (_, ps_c) =
        insum_baselines::spmm::cusparse_spmm(&csr_s, &b2, &device, Mode::Analytic).expect("runs");
    let skew_gain = ps_c.total_time() / ps_s.total_time();
    assert!(
        skew_gain > uniform_gain,
        "swizzle gain on skew ({skew_gain:.3}) must exceed uniform ({uniform_gain:.3})"
    );
}

#[test]
fn f16_halves_memory_traffic() {
    let mut rng = SmallRng::seed_from_u64(7);
    let a = block_sparse_dense(256, 256, 32, 32, 0.5, &mut rng);
    let b32 = insum_tensor::rand_uniform(vec![256, 128], -1.0, 1.0, &mut rng);
    let bgc32 = BlockGroupCoo::from_dense(&a, 32, 32, 2).expect("blocked");
    let bgc16 = BlockGroupCoo::from_dense(&a.cast(DType::F16), 32, 32, 2).expect("blocked");
    let app32 = apps::spmm_block_group(&bgc32, &b32);
    let app16 = apps::spmm_block_group(&bgc16, &b32.cast(DType::F16));
    let opts = InsumOptions::default();
    let p32 = app32
        .compile(&opts)
        .expect("compiles")
        .time(&app32.tensors)
        .expect("simulates");
    let p16 = app16
        .compile(&opts)
        .expect("compiles")
        .time(&app16.tensors)
        .expect("simulates");
    let d32 = p32.total_stats().dram_bytes() as f64;
    let d16 = p16.total_stats().dram_bytes() as f64;
    assert!(d16 < 0.7 * d32, "f16 traffic {d16} vs f32 {d32}");
}
