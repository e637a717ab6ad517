//! Property tests for the contraction planner's executor contract:
//! on integer-valued data, every search strategy's output is
//! bit-identical to the naive left-to-right reference (and to the dense
//! `einsum` oracle), and the searched orders never cost more than the
//! naive one — DP ≤ greedy ≤ left-to-right.

use insum::{chain_reference, insum_with, plan, plan_with_strategy, InsumOptions, OrderStrategy};
use insum_tensor::{einsum, Tensor};
use proptest::prelude::*;
use std::collections::BTreeMap;

const LETTERS: &[u8] = b"abcdef";

/// Deterministic values in {-1, 0, 1}: f32 products and sums of chains
/// this small are exact integers, so contraction order cannot change a
/// single bit.
fn int_tensor(shape: Vec<usize>, seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9e37_79b9).wrapping_add(0x1234_5678);
    Tensor::from_fn(shape, |_| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 3) as f32 - 1.0
    })
}

/// Build a random `n`-operand spec-form chain from a 6-letter index pool
/// with extents in 1..=4: the spec string, its operand bindings
/// (`op0`, …), and the operand tensors in order for the dense oracle.
fn random_chain(n: usize, seed: u64) -> (String, BTreeMap<String, Tensor>, Vec<Tensor>) {
    let mut state = seed.wrapping_mul(0x2545_f491_4f6c_dd1d).max(1);
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let extents: Vec<usize> = (0..LETTERS.len()).map(|_| 1 + next(4) as usize).collect();
    let mut terms: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut used: Vec<usize> = Vec::new();
    for _ in 0..n {
        // Distinct letters per operand (no diagonals: the pairwise
        // statement language reads each leaf index once per axis).
        let rank = 1 + next(3) as usize;
        let mut pool: Vec<usize> = (0..LETTERS.len()).collect();
        let mut term = Vec::with_capacity(rank);
        for _ in 0..rank {
            let pick = pool.remove(next(pool.len() as u64) as usize);
            term.push(pick);
            if !used.contains(&pick) {
                used.push(pick);
            }
        }
        terms.push(term);
    }
    // Output: a random distinct subset of the bound letters (possibly
    // empty — a rank-0 output exercises the host fallback).
    let mut output = Vec::new();
    for &ix in &used {
        if output.len() < 3 && next(3) == 0 {
            output.push(ix);
        }
    }
    let render =
        |term: &[usize]| -> String { term.iter().map(|&ix| LETTERS[ix] as char).collect() };
    let spec = format!(
        "{}->{}",
        terms
            .iter()
            .map(|t| render(t))
            .collect::<Vec<_>>()
            .join(","),
        render(&output)
    );
    let mut tensors = BTreeMap::new();
    let mut ordered = Vec::with_capacity(n);
    for (i, term) in terms.iter().enumerate() {
        let shape: Vec<usize> = term.iter().map(|&ix| extents[ix]).collect();
        let t = int_tensor(shape, seed.wrapping_add(1 + i as u64));
        tensors.insert(format!("op{i}"), t.clone());
        ordered.push(t);
    }
    (spec, tensors, ordered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every strategy agrees with the naive left-to-right reference and
    /// the dense einsum oracle bit-for-bit, and search never loses to
    /// the naive order on the cost model.
    #[test]
    fn planned_chains_are_bit_identical_and_never_costlier(
        n in 3usize..=5,
        seed in 0u64..1_000_000,
    ) {
        let (spec, tensors, ordered) = random_chain(n, seed);
        let refs: Vec<&Tensor> = ordered.iter().collect();
        let want = einsum(&spec, &refs).unwrap();
        let reference = chain_reference(&spec, &tensors).unwrap();
        prop_assert_eq!(
            reference.data(), want.data(),
            "LTR reference vs dense einsum for {}", spec
        );
        let opts = InsumOptions::default();
        // Every pairwise step a program launch, none a microkernel.
        let general = InsumOptions {
            fast_path: false,
            ..Default::default()
        };
        let mut flops = BTreeMap::new();
        for strategy in [
            OrderStrategy::LeftToRight,
            OrderStrategy::Greedy,
            OrderStrategy::Dp,
        ] {
            let chain = plan_with_strategy(&spec, &tensors, &opts, strategy).unwrap();
            let plan = chain.plan().expect("built by the planner");
            flops.insert(format!("{strategy:?}"), plan.total_flops);
            let (got, _) = chain.run(&tensors).unwrap();
            prop_assert_eq!(
                got.data(), want.data(),
                "{:?} diverged on {}", strategy, spec
            );
            // Relaunching is invisible, step by step: the second run of a
            // chain records each step's address script, the third replays
            // them, and both return what a one-shot plan-and-run returns.
            for opts in [&opts, &general] {
                let chain = plan_with_strategy(&spec, &tensors, opts, strategy).unwrap();
                for launch in 1..=3 {
                    let (got, got_profile) = chain.run(&tensors).unwrap();
                    let (one_shot, one_shot_profile) =
                        plan_with_strategy(&spec, &tensors, opts, strategy)
                            .and_then(|c| c.run(&tensors))
                            .unwrap();
                    prop_assert!(
                        got.bit_eq(&one_shot),
                        "{:?} launch {} of {} under {:?}", strategy, launch, spec, opts
                    );
                    prop_assert_eq!(got_profile, one_shot_profile);
                }
            }
        }
        prop_assert!(flops["Dp"] <= flops["Greedy"], "DP beats greedy: {}", spec);
        prop_assert!(flops["Greedy"] <= flops["LeftToRight"], "greedy beats LTR: {}", spec);
    }
}

/// A statement is a chain of one step: a one-device-step spec through
/// the planner and its pairwise statement through `insum_with` are the
/// same artifact from outside — same step identity, same bits, same
/// profile — on the fast path, the fused pipeline and the unfused one.
#[test]
fn one_step_plan_equals_the_statement_it_plans() {
    let mut tensors: BTreeMap<String, Tensor> = [
        ("op0".to_string(), int_tensor(vec![6, 5], 1)),
        ("op1".to_string(), int_tensor(vec![5, 7], 2)),
    ]
    .into_iter()
    .collect();
    let general = InsumOptions {
        fast_path: false,
        ..Default::default()
    };
    for opts in [InsumOptions::default(), general, InsumOptions::unfused()] {
        let planned = plan("ij,jk->ik", &tensors, &opts).unwrap();
        let steps = &planned.plan().expect("built by the planner").steps;
        assert_eq!((planned.step_count(), planned.device_step_count()), (1, 1));
        let statement = steps[0].expression.clone();
        tensors.insert(steps[0].out_name.clone(), Tensor::zeros(vec![6, 7]));
        let direct = insum_with(&statement, &tensors, &opts).unwrap();
        assert!(direct.plan().is_none());
        assert_eq!(planned.launch_signature(), direct.launch_signature());
        assert_eq!(planned.fast_path_pattern(), direct.fast_path_pattern());
        assert_eq!(planned.program_step_count(), direct.program_step_count());
        let (got, got_profile) = planned.run(&tensors).unwrap();
        let (want, want_profile) = direct.run(&tensors).unwrap();
        assert!(got.bit_eq(&want), "{statement} under {opts:?}");
        assert_eq!(got_profile, want_profile);
        assert_eq!(
            planned.time(&tensors).unwrap(),
            direct.time(&tensors).unwrap()
        );
    }
}
