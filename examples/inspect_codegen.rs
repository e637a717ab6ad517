//! Inspect the compiler: print the fusion plan roles and the generated
//! Triton-like kernels for the paper's running example
//! `C[D[y],x] += A[y,E[r]] * B[r,x]` (Fig. 9) in all three codegen modes,
//! plus the autotuner's table, the unfused stock-Inductor pipeline
//! shape, and what the simulator decided about relaunching the kernel
//! (does it replay an address script, the value tape a replay runs, and
//! how the launches split).
//!
//! Run with: `cargo run --release --example inspect_codegen`

use insum::{insum_with, InsumOptions, Tensor};
use insum_gpu::{script_dispatch_counts, DeviceModel, LaunchOptions, Mode, Program};
use insum_graph::TensorMeta;
use insum_inductor::{build_plan, compile_fused, CodegenOptions};
use std::collections::BTreeMap;

fn main() {
    let (m, k, r, n) = (64, 128, 32, 64);
    let tensors: BTreeMap<String, Tensor> = [
        ("C".to_string(), Tensor::zeros(vec![m, n])),
        ("D".to_string(), Tensor::arange(r)),
        ("A".to_string(), Tensor::zeros(vec![r, k])),
        ("E".to_string(), Tensor::arange(r)),
        ("B".to_string(), Tensor::zeros(vec![r, n])),
    ]
    .into_iter()
    .collect();
    let expr = "C[D[y],x] += A[y,E[r]] * B[r,x]";
    println!("expression: {expr}\n");

    for (label, opts) in [
        (
            "lazy broadcasting + tl.dot (ours, Fig. 9)",
            InsumOptions::default(),
        ),
        (
            "eager broadcasting + tl.dot (Fig. 8b)",
            InsumOptions {
                lazy_broadcast: false,
                ..Default::default()
            },
        ),
        (
            "no ops.dot: scalar multiply + tl.sum (Fig. 8a)",
            InsumOptions {
                tensor_cores: false,
                ..Default::default()
            },
        ),
    ] {
        let op = insum_with(expr, &tensors, &opts).expect("compiles");
        println!("# ==== {label} ====");
        println!("{}", op.triton_source());
        let t = op.time(&tensors).expect("simulates").total_time();
        println!(
            "# simulated: {:.2} us, tensor cores: {}\n",
            t * 1e6,
            op.uses_tensor_cores()
        );
    }

    // Autotuned: the table the winner beat. Every candidate carries a
    // one-instance estimate; only the front-runners were fully launched.
    let tuned = insum_with(expr, &tensors, &InsumOptions::autotuned()).expect("compiles");
    println!(
        "# ==== autotuned: {} of {} tile configurations fully launched ====",
        tuned.autotune_configs,
        tuned.autotune_trials.len()
    );
    for (tile, estimate, time) in &tuned.autotune_trials {
        let time = time.map_or("      -".to_string(), |t| format!("{:7.2}", t * 1e6));
        println!(
            "#   y={:<2} x={:<2} r={:<2}  estimate {:7.2} us  measured {time} us",
            tile.yblock,
            tile.xblock,
            tile.rblock,
            estimate * 1e6
        );
    }
    let measured = tuned.autotune_trials.iter().filter_map(|t| t.2);
    let winner = measured.fold(f64::INFINITY, f64::min);
    let default = tuned.autotune_trials[0].2.expect("the default is measured");
    print!(
        "# winner {:.2} us, {:.1}% faster than the default",
        winner * 1e6,
        100.0 * (1.0 - winner / default)
    );
    match tuned.autotune_trials.iter().find(|t| t.2.is_none()) {
        Some(next) => println!("; nothing unlaunched can beat {:.2} us\n", next.1 * 1e6),
        None => println!("\n"),
    }

    let unfused = insum_with(expr, &tensors, &InsumOptions::unfused()).expect("compiles");
    let profile = unfused.time(&tensors).expect("simulates");
    println!("# ==== stock Inductor (unfused) ====");
    println!(
        "# {} kernels (gather, template matmul, scatter), simulated {:.2} us:",
        unfused.kernel_count(),
        profile.total_time() * 1e6
    );
    for r in &profile.reports {
        println!("#   {r}");
    }

    // Relaunch provenance: the lowered program says whether a relaunch
    // against the same D and E may replay recorded addresses, and this
    // thread's launch counters say how four launches in a row ran.
    let stmt = insum_lang::parse(expr).expect("parses");
    let metas: BTreeMap<String, TensorMeta> = tensors
        .iter()
        .map(|(n, t)| (n.clone(), TensorMeta::new(t.shape().to_vec(), t.dtype())))
        .collect();
    let plan = build_plan(&stmt, &metas).expect("plan builds");
    let op = compile_fused(&plan, &CodegenOptions::default()).expect("kernel compiles");
    let mut args: Vec<Tensor> = op
        .plan
        .param_order
        .iter()
        .map(|n| tensors[n].clone())
        .collect();
    let lens: Vec<usize> = args.iter().map(Tensor::len).collect();
    let dtypes: Vec<_> = args.iter().map(Tensor::dtype).collect();
    let program = Program::compile(&op.kernel, &op.grid, &lens, &dtypes).expect("lowers");
    println!("\n# ==== relaunching the fused kernel ====");
    match program.replay_decline() {
        None => println!("# replayable: its addresses depend on D and E alone"),
        Some(why) => println!("# every launch runs in full: {why}"),
    }
    // What a replay runs: the value slice as straight-line tile ops (when
    // each runs, its kind, slots, site and parameter, tile shapes).
    match program.tape_listing() {
        Ok(tape) => {
            println!("# value tape:");
            for line in tape.lines() {
                println!("#   {line}");
            }
        }
        Err(why) => println!("# no value tape: {why}"),
    }
    let before = script_dispatch_counts();
    for _ in 0..4 {
        let mut refs: Vec<&mut Tensor> = args.iter_mut().collect();
        program
            .launch_with(
                &mut refs,
                &DeviceModel::rtx3090(),
                Mode::Execute,
                &LaunchOptions::default(),
            )
            .expect("launches");
    }
    let after = script_dispatch_counts();
    println!(
        "# four launches in a row: {} full, {} recording, {} replayed from a {}-byte script",
        after.0 - before.0,
        after.1 - before.1,
        after.2 - before.2,
        program.script_bytes().unwrap_or(0)
    );
}
