//! Point-cloud sparse convolution end to end: synthesize an indoor room,
//! voxelize it, build the grouped kernel map, and run one submanifold
//! 3×3×3 convolution layer through the Insum compiler — the paper's §6.4
//! case study, whose hand-written competitor (TorchSparse) is ~4500 lines
//! of CUDA.
//!
//! Run with: `cargo run --release --example point_cloud_conv`

use insum::apps;
use insum::{DType, InsumOptions, Mode};
use insum_formats::heuristic::heuristic_group_size;
use insum_gpu::DeviceModel;
use insum_workloads::pointcloud::{generate_points, kernel_map, rooms, voxelize};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(3);
    let room = rooms()
        .into_iter()
        .find(|r| r.name == "office")
        .expect("office exists");
    println!(
        "scene: {} ({}x{}x{} m, {} furniture pieces)",
        room.name, room.w, room.d, room.h, room.furniture
    );

    let points = generate_points(&room, 0.08, &mut rng);
    let scene = voxelize(&points, 0.12);
    println!(
        "{} points -> {} occupied voxels at 12 cm",
        points.len(),
        scene.len()
    );

    // Grouped kernel map (grouping by weight offset, §6.4).
    let occ: Vec<usize> = insum_baselines::conv::pairs_by_offset(&scene)
        .iter()
        .map(Vec::len)
        .collect();
    let km = kernel_map(&scene, heuristic_group_size(&occ));
    println!(
        "kernel map: {} pairs in {} groups of {} (padding {:.1}%)",
        km.pairs,
        km.groups(),
        km.group_size,
        100.0 * (1.0 - km.pairs as f64 / (km.groups() * km.group_size) as f64),
    );

    let channels = 32;
    let input = insum_tensor::rand_uniform(vec![scene.len(), channels], -1.0, 1.0, &mut rng)
        .cast(DType::F16);
    let weight = insum_tensor::rand_uniform(vec![27, channels, channels], -0.5, 0.5, &mut rng)
        .cast(DType::F16);

    let app = apps::sparse_conv(&km, &input, &weight);
    println!("\nexpression: {}", app.expr);
    let compiled = app.compile(&InsumOptions::default()).expect("compiles");
    let (out, profile) = compiled.run(&app.tensors).expect("runs");
    println!(
        "fused kernels: {}, tensor cores: {}",
        compiled.kernel_count(),
        compiled.uses_tensor_cores()
    );
    println!("{profile}");

    // Check against the hand-written ImplicitGEMM baseline.
    let device = DeviceModel::rtx3090();
    let (ref_out, p_ig) =
        insum_baselines::conv::implicit_gemm_conv(&scene, &input, &weight, &device, Mode::Execute)
            .expect("baseline runs");
    assert!(
        out.allclose(&ref_out, 2e-2, 2e-2),
        "conv agrees with ImplicitGEMM"
    );
    println!(
        "verified against ImplicitGEMM; simulated speedup {:.2}x (one expression vs a CUDA library)",
        p_ig.total_time() / profile.total_time()
    );
}
