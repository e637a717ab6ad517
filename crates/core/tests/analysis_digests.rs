//! Golden digests of what `insum_gpu::Program::compile` derives.
//!
//! Every kernel of the corpus — the code generator's kernels for the
//! benchmark and paper expressions under each `InsumOptions` ablation,
//! the unfused pipeline's kernels, the hand-written baselines (the CSR
//! ones with dynamic loops among them) and the simulator tests' kernel
//! generators at fixed seeds — is compiled, and the digest of its lowered
//! program (`Program::analysis_digest`: unit modes, release lists, node
//! cache levels, value flags, every site's classification, separable
//! sites, dot-operand masks, per-instance registers, `dedup_ok`, replay
//! decline) is checked against the table below. A refactor of the
//! analyses must leave every entry equal.
//!
//! On a mismatch the test prints the whole table as it now reads. A
//! change that claims not to move the analyses may never paste it back.

#[path = "../../gpu/tests/common/mod.rs"]
mod common;

use insum::apps;
use insum::{insum_with, plan, DeviceModel, InsumOptions, Mode, ProgramCache, Tensor};
use insum_formats::{Bcsr, BlockCoo, BlockGroupCoo, Coo, Csr, GroupCoo};
use insum_gpu::{record_programs, Program, ReplayDecline};
use insum_kernel::{Fnv, Kernel};
use insum_tensor::{rand_uniform, DType};
use insum_workloads::blocksparse::{block_sparse_dense, coo_from_degrees};
use insum_workloads::equivariant::cg_tensor;
use insum_workloads::pointcloud::{generate_points, kernel_map, voxelize, RoomSpec, VoxelScene};
use proptest::prelude::Strategy;
use proptest::test_runner::TestRng;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// `(corpus entry, digest)`, recorded before the analyses were unified
/// behind one dataflow driver.
const GOLDEN: &[(&str, u64)] = &[
    ("spmm_block_group/default", 11565846299695538372),
    ("spmm_block_group/unfused", 7306152071580895340),
    ("spmm_block_group/no_tensor_cores", 12428147905776501920),
    ("spmm_block_group/eager_broadcast", 13848590138105049504),
    ("spmm_block_group/fixed_tiles", 1413983680373658969),
    ("spmm_block_group/general", 11565846299695538372),
    ("spmm_block/default", 14588722441717598394),
    ("spmm_block/unfused", 9800146821291580784),
    ("spmm_block/no_tensor_cores", 5323645485781915588),
    ("spmm_block/eager_broadcast", 13599593396608074049),
    ("spmm_block/fixed_tiles", 8273632458757563972),
    ("spmm_block/general", 14588722441717598394),
    ("spmm_coo/default", 13458582369409586786),
    ("spmm_coo/unfused", 14648290963086339004),
    ("spmm_coo/no_tensor_cores", 13458582369409586786),
    ("spmm_coo/eager_broadcast", 12740252144901395467),
    ("spmm_coo/fixed_tiles", 16391394833441081443),
    ("spmm_coo/general", 13458582369409586786),
    ("spmm_group/default", 3400258015012942824),
    ("spmm_group/unfused", 5362211197064591177),
    ("spmm_group/no_tensor_cores", 3400258015012942824),
    ("spmm_group/eager_broadcast", 2525248444933873712),
    ("spmm_group/fixed_tiles", 17725321581389966780),
    ("spmm_group/general", 3400258015012942824),
    ("sparse_conv/default", 17986903478789964920),
    ("sparse_conv/unfused", 1906828774800490960),
    ("sparse_conv/no_tensor_cores", 16375639404428493588),
    ("sparse_conv/eager_broadcast", 2479042029609896669),
    ("sparse_conv/fixed_tiles", 17986903478789964920),
    ("sparse_conv/general", 17986903478789964920),
    ("equivariant_tp/default", 11003921980555057434),
    ("equivariant_tp/unfused", 10574852404956221461),
    ("equivariant_tp/no_tensor_cores", 4798432280158498539),
    ("equivariant_tp/eager_broadcast", 3274618913741691759),
    ("equivariant_tp/fixed_tiles", 11003921980555057434),
    ("equivariant_tp/general", 11003921980555057434),
    ("matmul/default", 16526474581451670021),
    ("matmul/unfused", 16526474581451670021),
    ("matmul/no_tensor_cores", 14061993914016484317),
    ("matmul/eager_broadcast", 7697652165853136977),
    ("matmul/fixed_tiles", 16647365518814450672),
    ("matmul/general", 16526474581451670021),
    ("reduction/default", 12677067551055426060),
    ("reduction/unfused", 12677067551055426060),
    ("reduction/no_tensor_cores", 12677067551055426060),
    ("reduction/eager_broadcast", 16958394933374947318),
    ("reduction/fixed_tiles", 3553021032317398298),
    ("reduction/general", 12677067551055426060),
    ("hadamard/default", 18108707557300088949),
    ("hadamard/unfused", 18108707557300088949),
    ("hadamard/no_tensor_cores", 18108707557300088949),
    ("hadamard/eager_broadcast", 2170534575104276011),
    ("hadamard/fixed_tiles", 4385587925212376110),
    ("hadamard/general", 18108707557300088949),
    ("transpose/default", 12161962213042174405),
    ("transpose/unfused", 5365304019874939717),
    ("transpose/no_tensor_cores", 12161962213042174405),
    ("transpose/eager_broadcast", 12161962213042174405),
    ("transpose/fixed_tiles", 12161962213042174405),
    ("transpose/general", 5365304019874939717),
    ("diagonal/default", 12161962213042174405),
    ("diagonal/unfused", 7272142599589156182),
    ("diagonal/no_tensor_cores", 12161962213042174405),
    ("diagonal/eager_broadcast", 12161962213042174405),
    ("diagonal/fixed_tiles", 12161962213042174405),
    ("diagonal/general", 16390526137247018057),
    ("chain4/default", 6063432388507928314),
    ("chain4/unfused", 6063432388507928314),
    ("chain4/no_tensor_cores", 13474399363013755709),
    ("chain4/eager_broadcast", 3556835070538249129),
    ("chain4/fixed_tiles", 8548716208212181199),
    ("chain4/general", 6063432388507928314),
    ("attention/default", 490944528327431879),
    ("attention/unfused", 490944528327431879),
    ("attention/no_tensor_cores", 8781354370529401814),
    ("attention/eager_broadcast", 5450048147709966946),
    ("attention/fixed_tiles", 490944528327431879),
    ("attention/general", 490944528327431879),
    ("baseline/torch_bsr", 15759827033401205852),
    ("baseline/cusparse", 12906524195395088148),
    ("baseline/sputnik", 7584271918168597719),
    ("baseline/dense", 2072596010060486089),
    ("baseline/implicit_gemm", 12352083935037807594),
    ("baseline/fetch_on_demand", 7748255602810275908),
    ("baseline/taco", 6918366310608497855),
    ("baseline/sparsetir", 14217095652865757908),
    ("baseline/e3nn", 5060365687761497280),
    ("baseline/cuequivariance", 2893288565536849340),
    ("gpu/case0", 14347013120653681093),
    ("gpu/case1", 6511035115644024876),
    ("gpu/case2", 7300240784773322107),
    ("gpu/case3", 17294463093558167479),
    ("gpu/case4", 11944242453659493880),
    ("gpu/case5", 18013926165070528723),
    ("gpu/case6", 13909330808810214565),
    ("gpu/case7", 3783307140962179808),
    ("gpu/case8", 4086581046234037567),
    ("gpu/case9", 9038502854295613256),
    ("gpu/case10", 14184926081044352028),
    ("gpu/case11", 13467594199330884863),
    ("gpu/case12", 6074809408518247516),
    ("gpu/case13", 15782157429633703333),
    ("gpu/case14", 8957764707781373627),
    ("gpu/case15", 15068373060579023448),
    ("gpu/case16", 18341378900022346642),
    ("gpu/case17", 9883545848623035501),
    ("gpu/case18", 16742290978764578169),
    ("gpu/case19", 18061930242100323854),
    ("gpu/case20", 3143375530583032190),
    ("gpu/case21", 5460719936940605420),
    ("gpu/case22", 3969648313089103310),
    ("gpu/case23", 17085554236500528502),
    ("gpu/case24", 229279716546606896),
    ("gpu/case25", 9036399951292516171),
    ("gpu/case26", 14724476167890524826),
    ("gpu/case27", 2841994425537511681),
    ("gpu/case28", 11622855615638655659),
    ("gpu/case29", 9121443355272484741),
    ("gpu/case30", 5874446336515490965),
    ("gpu/case31", 16131646460087646811),
    ("gpu/tiled0", 4579291775877244202),
    ("gpu/tiled1", 9790386267670763962),
    ("gpu/tiled2", 3148656433029247961),
    ("gpu/tiled3", 4446838244755943456),
    ("gpu/tiled4", 934614796148939468),
    ("gpu/tiled5", 12466516508271676574),
    ("gpu/tiled6", 11949366814689780753),
    ("gpu/tiled7", 11175733179821485479),
    ("gpu/tiled8", 14568512195174962836),
    ("gpu/tiled9", 16612133396578109483),
    ("gpu/tiled10", 8574403354553659517),
    ("gpu/tiled11", 432451912279826392),
    ("gpu/tiled12", 3096559572402109160),
    ("gpu/tiled13", 16772084493607052198),
    ("gpu/tiled14", 14607282489824789351),
    ("gpu/tiled15", 14909284823909163701),
    ("gpu/conv_shaped", 7492419568880297140),
    ("gpu/tp_shaped", 16268249852210802705),
    ("gpu/block_group", 10929358130488313320),
];

type Bindings = BTreeMap<String, Tensor>;

fn bind(pairs: Vec<(&str, Tensor)>) -> Bindings {
    pairs.into_iter().map(|(n, t)| (n.to_string(), t)).collect()
}

fn combine(digests: &[u64]) -> u64 {
    let mut h = Fnv::new();
    h.usize(digests.len());
    for &d in digests {
        h.u64(d);
    }
    h.finish()
}

fn error_digest(e: &dyn std::fmt::Display) -> u64 {
    let mut h = Fnv::new();
    h.str(&format!("error: {e}"));
    h.finish()
}

/// How a corpus entry's programs relaunch, one word each in compile
/// order: `tape` (replayed by value tape) or the `ReplayDecline`.
fn census(replays: &[Result<(), ReplayDecline>]) -> String {
    let word = |r: &Result<(), ReplayDecline>| match r {
        Ok(()) => "tape".to_string(),
        Err(why) => format!("{why:?}"),
    };
    replays.iter().map(word).collect::<Vec<_>>().join(" ")
}

/// One corpus entry: its digest and its replay census.
type Entry = (String, u64, String);

/// The digest and census of every program compiled while `f` runs, the
/// program cache emptied first so that each one compiles.
fn recorded<E: std::fmt::Display>(f: impl FnOnce() -> Result<(), E>) -> (u64, String) {
    ProgramCache::global().clear();
    let (result, notes) = record_programs(f);
    let (digests, replays): (Vec<u64>, Vec<_>) = notes.into_iter().unzip();
    match result {
        Ok(()) => (combine(&digests), census(&replays)),
        Err(e) => (error_digest(&e), "error".into()),
    }
}

fn compiled(kernel: &Kernel, grid: &[usize], args: &[Tensor]) -> (u64, String) {
    let lens: Vec<usize> = args.iter().map(Tensor::len).collect();
    let dtypes: Vec<DType> = args.iter().map(Tensor::dtype).collect();
    match Program::compile(kernel, grid, &lens, &dtypes) {
        Ok(p) => {
            let replay = match p.replay_decline() {
                Some(why) => Err(why),
                None => p.tape_listing().map(drop),
            };
            (p.analysis_digest(), census(&[replay]))
        }
        Err(e) => (error_digest(&e), "error".into()),
    }
}

fn tiny_scene() -> VoxelScene {
    let mut rng = SmallRng::seed_from_u64(1);
    let spec = RoomSpec {
        name: "t",
        w: 1.5,
        d: 1.5,
        h: 1.5,
        furniture: 1,
    };
    voxelize(&generate_points(&spec, 0.3, &mut rng), 0.3)
}

/// The benchmark and paper expressions at test size: `(name, expr,
/// bindings)`; chain expressions go through `insum::plan`.
fn expressions() -> Vec<(&'static str, &'static str, Bindings)> {
    let mut rng = SmallRng::seed_from_u64(5);
    let mut out = Vec::new();
    let blocky = block_sparse_dense(128, 128, 16, 16, 0.5, &mut rng);
    let b = rand_uniform(vec![128, 64], -1.0, 1.0, &mut rng);
    let bgc = BlockGroupCoo::from_dense(&blocky, 16, 16, 2).unwrap();
    let app = apps::spmm_block_group(&bgc, &b);
    out.push(("spmm_block_group", app.expr, app.tensors));
    let bc = BlockCoo::from_dense(&blocky, 16, 16).unwrap();
    let app = apps::spmm_block(&bc, &b);
    out.push(("spmm_block", app.expr, app.tensors));

    let scattered = block_sparse_dense(64, 64, 8, 8, 0.5, &mut rng);
    let coo = Coo::from_dense(&scattered).unwrap();
    let b = rand_uniform(vec![64, 32], -1.0, 1.0, &mut rng);
    let app = apps::spmm_coo(&coo, &b);
    out.push(("spmm_coo", app.expr, app.tensors));
    let gc = GroupCoo::from_coo(&coo, 4).unwrap();
    let app = apps::spmm_group(&gc, &b);
    out.push(("spmm_group", app.expr, app.tensors));

    let scene = tiny_scene();
    let km = kernel_map(&scene, 3);
    let input = rand_uniform(vec![scene.len(), 16], -1.0, 1.0, &mut rng);
    let weight = rand_uniform(vec![27, 16, 16], -0.5, 0.5, &mut rng);
    let app = apps::sparse_conv(&km, &input, &weight);
    out.push(("sparse_conv", app.expr, app.tensors));

    let cg = cg_tensor(1, 4);
    let x = rand_uniform(vec![2, cg.dim, 16], -1.0, 1.0, &mut rng);
    let y = rand_uniform(vec![2, cg.dim], -1.0, 1.0, &mut rng);
    let w = rand_uniform(vec![2, cg.paths.len(), 16, 16], -0.5, 0.5, &mut rng);
    let app = apps::equivariant_tp(&cg, &x, &y, &w);
    out.push(("equivariant_tp", app.expr, app.tensors));

    out.push((
        "matmul",
        "C[y,x] = A[y,r] * B[r,x]",
        bind(vec![
            ("C", Tensor::zeros(vec![64, 48])),
            ("A", rand_uniform(vec![64, 40], -1.0, 1.0, &mut rng)),
            ("B", rand_uniform(vec![40, 48], -1.0, 1.0, &mut rng)),
        ]),
    ));
    let x = rand_uniform(vec![48, 40], -1.0, 1.0, &mut rng);
    out.push((
        "reduction",
        "R[i] = X[i,j]",
        bind(vec![("R", Tensor::zeros(vec![48])), ("X", x.clone())]),
    ));
    out.push((
        "hadamard",
        "H[i,j] = X[i,j] * Y[i,j]",
        bind(vec![
            ("H", Tensor::zeros(vec![48, 40])),
            ("X", x.clone()),
            ("Y", rand_uniform(vec![48, 40], -1.0, 1.0, &mut rng)),
        ]),
    ));
    out.push((
        "transpose",
        "T[j,i] = A[i,j]",
        bind(vec![("T", Tensor::zeros(vec![40, 48])), ("A", x)]),
    ));
    out.push((
        "diagonal",
        "D[i] = A[i,i]",
        bind(vec![
            ("D", Tensor::zeros(vec![24])),
            ("A", rand_uniform(vec![24, 24], -1.0, 1.0, &mut rng)),
        ]),
    ));
    out.push((
        "chain4",
        "O[i,m] = A[i,j] * B[j,k] * C[k,l] * D[l,m]",
        bind(vec![
            ("A", rand_uniform(vec![16, 24], -1.0, 1.0, &mut rng)),
            ("B", rand_uniform(vec![24, 8], -1.0, 1.0, &mut rng)),
            ("C", rand_uniform(vec![8, 24], -1.0, 1.0, &mut rng)),
            ("D", rand_uniform(vec![24, 16], -1.0, 1.0, &mut rng)),
        ]),
    ));
    out.push((
        "attention",
        "O[b,h,q,d] = Q[b,h,q,e] * K[b,h,k,e] * V[b,h,k,d]",
        bind(vec![
            ("Q", rand_uniform(vec![2, 2, 8, 16], -1.0, 1.0, &mut rng)),
            ("K", rand_uniform(vec![2, 2, 12, 16], -1.0, 1.0, &mut rng)),
            ("V", rand_uniform(vec![2, 2, 12, 8], -1.0, 1.0, &mut rng)),
        ]),
    ));
    out
}

/// `InsumOptions` ablations: Fig. 13's axes plus fixed tiles and the
/// general lowering of the stride views.
fn ablations() -> Vec<(&'static str, InsumOptions)> {
    let base = InsumOptions {
        sim_threads: Some(1),
        ..InsumOptions::default()
    };
    vec![
        ("default", base.clone()),
        (
            "unfused",
            InsumOptions {
                fuse: false,
                ..base.clone()
            },
        ),
        (
            "no_tensor_cores",
            InsumOptions {
                tensor_cores: false,
                ..base.clone()
            },
        ),
        (
            "eager_broadcast",
            InsumOptions {
                lazy_broadcast: false,
                ..base.clone()
            },
        ),
        (
            "fixed_tiles",
            InsumOptions {
                yblock: Some(16),
                xblock: Some(16),
                rblock: Some(16),
                ..base.clone()
            },
        ),
        (
            "general",
            InsumOptions {
                fast_path: false,
                ..base
            },
        ),
    ]
}

fn build_corpus() -> Vec<Entry> {
    let mut out = Vec::new();
    for (name, expr, tensors) in expressions() {
        for (ablation, opts) in ablations() {
            let entry = recorded(|| {
                let compiled = if insum::is_chain_expression(expr) {
                    plan(expr, &tensors, &opts)?
                } else {
                    insum_with(expr, &tensors, &opts)?
                };
                compiled.time(&tensors).map(|_| ())
            });
            out.push((format!("{name}/{ablation}"), entry));
        }
    }

    // The hand-written baselines, launched in analytic mode.
    let device = DeviceModel::rtx3090();
    let an = Mode::Analytic;
    let mut rng = SmallRng::seed_from_u64(9);
    let blocky = block_sparse_dense(64, 64, 16, 16, 0.6, &mut rng);
    let bcsr = Bcsr::from_dense(&blocky, 16, 16).unwrap();
    let b = rand_uniform(vec![64, 32], -1.0, 1.0, &mut rng);
    out.push((
        "baseline/torch_bsr".into(),
        recorded(|| insum_baselines::spmm::torch_bsr_spmm(&bcsr, &b, &device, an).map(|_| ())),
    ));
    let coo = coo_from_degrees(&[5, 0, 9, 2, 7, 1, 3, 4], 16, &mut rng);
    let csr = Csr::from_coo(&coo);
    let b = rand_uniform(vec![16, 32], -1.0, 1.0, &mut rng);
    out.push((
        "baseline/cusparse".into(),
        recorded(|| insum_baselines::spmm::cusparse_spmm(&csr, &b, &device, an).map(|_| ())),
    ));
    out.push((
        "baseline/sputnik".into(),
        recorded(|| insum_baselines::spmm::sputnik_spmm(&csr, &b, &device, an).map(|_| ())),
    ));
    let a = rand_uniform(vec![64, 64], -1.0, 1.0, &mut rng);
    let b = rand_uniform(vec![64, 64], -1.0, 1.0, &mut rng);
    out.push((
        "baseline/dense".into(),
        recorded(|| insum_baselines::dense::dense_matmul(&a, &b, &device, an).map(|_| ())),
    ));
    let scene = tiny_scene();
    let input = rand_uniform(vec![scene.len(), 16], -1.0, 1.0, &mut rng);
    let weight = rand_uniform(vec![27, 16, 16], -0.5, 0.5, &mut rng);
    use insum_baselines::conv;
    let convs: [(&str, fn(_, _, _, _, _) -> _); 4] = [
        ("implicit_gemm", conv::implicit_gemm_conv),
        ("fetch_on_demand", conv::fetch_on_demand_conv),
        ("taco", conv::taco_conv),
        ("sparsetir", conv::sparsetir_conv),
    ];
    for (name, run) in convs {
        out.push((
            format!("baseline/{name}"),
            recorded(|| run(&scene, &input, &weight, &device, an).map(|_| ())),
        ));
    }
    let cg = cg_tensor(1, 4);
    let x = rand_uniform(vec![2, cg.dim, 16], -1.0, 1.0, &mut rng);
    let y = rand_uniform(vec![2, cg.dim], -1.0, 1.0, &mut rng);
    let w = rand_uniform(vec![2, cg.paths.len(), 16, 16], -0.5, 0.5, &mut rng);
    out.push((
        "baseline/e3nn".into(),
        recorded(|| insum_baselines::tp::e3nn_tp(&cg, &x, &y, &w, &device, an).map(|_| ())),
    ));
    out.push((
        "baseline/cuequivariance".into(),
        recorded(|| {
            insum_baselines::tp::cuequivariance_tp(&cg, &x, &y, &w, &device, an).map(|_| ())
        }),
    ));

    // The simulator tests' generators at fixed seeds.
    let mut rng = TestRng::deterministic("analysis digests");
    let cases = common::case_strategy();
    for i in 0..32 {
        let c = cases.generate(&mut rng);
        let args = common::build_args(&c);
        let grid = [c.gx, c.gy];
        out.push((
            format!("gpu/case{i}"),
            compiled(&common::build_kernel(&c), &grid, &args),
        ));
    }
    let specs = common::spec_strategy();
    for i in 0..16 {
        let spec = specs.generate(&mut rng);
        let args = spec.tensors(i);
        out.push((
            format!("gpu/tiled{i}"),
            compiled(&spec.build(), &[spec.gx, spec.gy], &args),
        ));
    }
    let groups = 9;
    out.push((
        "gpu/conv_shaped".into(),
        compiled(
            &common::conv_shaped_kernel(groups),
            &[1, groups],
            &common::conv_shaped_args(groups, 11, 4),
        ),
    ));
    out.push((
        "gpu/tp_shaped".into(),
        compiled(
            &common::tp_shaped_kernel(groups),
            &[1, groups],
            &common::tp_shaped_args(groups, 13),
        ),
    ));
    let (groups, g, xtiles) = (7, 3, 3);
    out.push((
        "gpu/block_group".into(),
        compiled(
            &common::block_group_kernel(groups, g, xtiles),
            &[xtiles, groups],
            &common::block_group_args(groups, g, xtiles, 5),
        ),
    ));
    out.into_iter().map(|(name, (d, c))| (name, d, c)).collect()
}

/// The corpus, built once per test process.
fn corpus() -> &'static [Entry] {
    static CORPUS: OnceLock<Vec<Entry>> = OnceLock::new();
    CORPUS.get_or_init(build_corpus)
}

#[test]
fn compile_derives_the_recorded_analyses() {
    let got: Vec<(String, u64)> = corpus().iter().map(|(n, d, _)| (n.clone(), *d)).collect();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    ({name:?}, {d}),\n"))
        .collect();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    let moved: Vec<&str> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != w)
        .map(|(g, _)| g.0.as_str())
        .collect();
    assert!(
        got == want,
        "analysis digests moved ({} of {} entries differ: {moved:?}); the table now reads:\n{table}",
        got.len().abs_diff(want.len()) + moved.len(),
        got.len()
    );
}

/// The replay census: every kernel the code generator emits for the
/// corpus expressions, under every ablation, relaunches by value tape, as
/// do the simulator tests' generated kernels and the hand-built baselines,
/// the CSR ones included (the script records their dynamic loops' trip
/// counts). So every corpus program compiles and lowers a tape: none is
/// one the machine and the tape cannot split between them. `error` is the
/// corpus entry that compiles no program (the unfused pipeline has no
/// kernel for a repeated index); the stride views' fast paths compile
/// none either and have an empty census.
#[test]
fn every_generated_kernel_replays_by_tape() {
    const DECLINES: &[(&str, &str)] = &[("diagonal/unfused", "error")];
    let mut declines = Vec::new();
    for (name, _, census) in corpus() {
        for word in census.split_whitespace().filter(|&w| w != "tape") {
            declines.push((name.as_str(), word));
        }
    }
    assert_eq!(declines, DECLINES, "the programs that never replay moved");
}
