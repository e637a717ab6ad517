//! Attention served through `insum_serve`, staged to exercise each
//! dispatch: the Kᵀ layout change is a canonical einsum served as a
//! zero-copy stride view, the probability-mass reduction is a statement
//! that computes and so runs one generated kernel, and the two
//! contractions (`QKᵀ` scores and `P·V` values) are spec-form chains
//! routed through the planner, with the softmax (the only non-einsum
//! stage) on the host. Two tenants run the same attention shapes on
//! their own data — the registry keys artifacts by expression, shapes,
//! and options, so both tenants share every artifact and each stage
//! compiles exactly once process-wide.
//!
//! Each stage prints whether it dispatched onto the fast path (and to
//! which pattern) or onto the general lowering.
//!
//! Run with: `cargo run --release --example attention`

use insum::{insum_with, run_chain, InsumOptions, Tensor};
use insum_serve::{ServeEngine, ServeError};
use insum_tensor::rand_uniform;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Key transpose: a pure layout change, `Pattern::Transpose` territory.
const KEY_T: &str = "KT[b,h,e,k] = K[b,h,k,e]";
/// Scores einsum against the transposed keys:
/// `S[b,h,q,k] = Q[b,h,q,e] * KT[b,h,e,k]` in spec form (operands bind
/// positionally as `op0`, `op1`).
const SCORES: &str = "bhqe,bhek->bhqk";
/// Values einsum: `O[b,h,q,d] = P[b,h,q,k] * V[b,h,k,d]`.
const VALUES: &str = "bhqk,bhkd->bhqd";
/// Probability mass per query row (sums the key axis away): a
/// reduction, so the general lowering; used to sanity-check the softmax.
const MASS: &str = "M[b,h,q] = P[b,h,q,k]";

const BATCH: usize = 2;
const HEADS: usize = 4;
const SEQ: usize = 64;
const DIM: usize = 32;

/// Row-wise scaled softmax over the last (key) axis.
fn softmax(scores: &Tensor, dim: usize) -> Tensor {
    let shape = scores.shape().to_vec();
    let keys = *shape.last().expect("scores have a key axis");
    let scale = 1.0 / (dim as f32).sqrt();
    let mut data = scores.contiguous_data().to_vec();
    for row in data.chunks_mut(keys) {
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v * scale));
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v * scale - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    Tensor::from_vec(shape, data).expect("softmax preserves the shape")
}

/// Integer-valued Q/K/V in {-2, …, 2}: the scores reduction is then
/// exact in f32, so the served scores can be checked bit-for-bit
/// against the dense einsum oracle (see the `insum_planner` docs for
/// the exactness domain).
fn qkv(seed: u64) -> (Tensor, Tensor, Tensor) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t =
        || rand_uniform(vec![BATCH, HEADS, SEQ, DIM], -2.49, 2.49, &mut rng).map(f32::round);
    (t(), t(), t())
}

fn bind(a: &Tensor, b: &Tensor) -> BTreeMap<String, Tensor> {
    [
        ("op0".to_string(), a.clone()),
        ("op1".to_string(), b.clone()),
    ]
    .into_iter()
    .collect()
}

/// How a statement-form stage dispatches: the recognized fast-path
/// pattern's name, or `"general"` for the full lowering.
fn dispatch_of(expr: &str, tensors: &BTreeMap<String, Tensor>) -> String {
    match insum_with(expr, tensors, &InsumOptions::default()) {
        Ok(compiled) => compiled
            .fast_path_pattern()
            .map(|p| format!("fast:{}", p.name()))
            .unwrap_or_else(|| "general".to_string()),
        Err(e) => format!("error: {e}"),
    }
}

fn main() -> Result<(), ServeError> {
    let engine = ServeEngine::with_defaults()?;

    for (tenant, seed) in [("alice", 3u64), ("bob", 4u64)] {
        let session = engine.session(tenant);
        let (q, k, v) = qkv(seed);

        // Stage 1 (served, fast path): transpose the keys into the
        // (e, k) layout the scores contraction consumes. This is a pure
        // stride transform — the served output is a view of K's own
        // storage; no bytes moved.
        let kt_in: BTreeMap<String, Tensor> = [
            ("K".to_string(), k.clone()),
            (
                "KT".to_string(),
                Tensor::zeros(vec![BATCH, HEADS, DIM, SEQ]),
            ),
        ]
        .into_iter()
        .collect();
        println!(
            "{tenant}: stage keyT    dispatch {}",
            dispatch_of(KEY_T, &kt_in)
        );
        let kt = session.submit(KEY_T, &kt_in)?.wait()?.output;
        assert!(
            kt.shares_storage(&k),
            "{tenant}: transposed keys must be a zero-copy view"
        );

        // Stage 2 (served, general): attention scores through the
        // planner chain.
        println!("{tenant}: stage scores  dispatch general (planner chain)");
        let scores_in = bind(&q, &kt);
        let scores = session.submit(SCORES, &scores_in)?.wait()?;
        // Integer data → the device reduction is exact: served scores
        // match the dense f64-accumulating oracle bit-for-bit.
        let want_scores = insum_tensor::einsum(SCORES, &[&q, &kt]).expect("scores einsum");
        assert_eq!(
            *scores.output.contiguous_data(),
            *want_scores.contiguous_data(),
            "{tenant}: scores"
        );

        // Stage 3 (host): scaled softmax over keys.
        let probs = softmax(&scores.output, DIM);

        // Stage 4 (served, general): probability mass per query row — one
        // generated reduction kernel — which must give 1 for every row.
        let mass_in: BTreeMap<String, Tensor> = [
            ("P".to_string(), probs.clone()),
            ("M".to_string(), Tensor::zeros(vec![BATCH, HEADS, SEQ])),
        ]
        .into_iter()
        .collect();
        println!(
            "{tenant}: stage mass    dispatch {}",
            dispatch_of(MASS, &mass_in)
        );
        let mass = session.submit(MASS, &mass_in)?.wait()?.output;
        assert!(
            mass.contiguous_data()
                .iter()
                .all(|&m| (m - 1.0).abs() < 1e-5),
            "{tenant}: softmax rows must sum to 1"
        );

        // Stage 5 (served, general): weighted values. The probabilities
        // are generic floats now, so the check is the serving guarantee
        // — bit-identity with a standalone planned run of the same
        // request — plus closeness to the dense oracle.
        println!("{tenant}: stage values  dispatch general (planner chain)");
        let values_in = bind(&probs, &v);
        let out = session.submit(VALUES, &values_in)?.wait()?;
        let (want_out, _) = run_chain(VALUES, &values_in).map_err(ServeError::from)?;
        assert_eq!(
            out.output.data(),
            want_out.data(),
            "{tenant}: served values must equal a standalone planned run"
        );
        let dense = insum_tensor::einsum(VALUES, &[&probs, &v]).expect("values einsum");
        let max_err = out
            .output
            .data()
            .iter()
            .zip(dense.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_err < 1e-4,
            "{tenant}: values drifted {max_err} from dense"
        );

        println!(
            "{tenant}: attention output {:?} verified (scores registry hit: {}, \
             values registry hit: {})",
            out.output.shape(),
            scores.registry_hit,
            out.registry_hit
        );
    }

    // Both tenants shared every artifact — a stride-view statement, a
    // general statement and two chain plans: four compilations total, and
    // the second tenant hit the registry on all four stages.
    let m = engine.metrics();
    assert_eq!(m.registry.misses, 4, "one artifact per served stage");
    assert_eq!(m.registry.hits, 4, "the second tenant reused all four");
    println!(
        "served {} attention stages for 2 tenants with {} artifact compilations \
         ({} registry hits)",
        m.completed, m.registry.misses, m.registry.hits
    );
    Ok(())
}
