//! Group-size selection by measured runtime (§4.2's final step).
//!
//! The paper rounds the closed-form estimate `g★ = √(S/n)` to *nearby
//! power-of-two values and selects the one with the best runtime*. The
//! heuristic in `insum_formats::heuristic` gives the analytic estimate;
//! this module performs the measured selection, timing each candidate's
//! compiled kernel with one analytic simulator launch.

use crate::apps;
use crate::options::InsumOptions;
use crate::Result;
use insum_formats::heuristic::{continuous_group_size, nearest_power_of_two};
use insum_formats::{BlockCoo, BlockGroupCoo, Coo, GroupCoo};
use insum_tensor::Tensor;

/// The power-of-two candidates around the continuous estimate: the
/// nearest power of two plus its two neighbors (clamped to ≥ 1 and to
/// the maximum occupancy).
pub fn pow2_candidates(occ: &[usize]) -> Vec<usize> {
    let max_occ = occ.iter().copied().max().unwrap_or(1).max(1);
    let center = nearest_power_of_two(continuous_group_size(occ));
    let mut out: Vec<usize> = [center / 2, center, center * 2]
        .into_iter()
        .filter(|&g| g >= 1)
        .map(|g| g.min(max_occ.next_power_of_two()))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Select the GroupCOO group size for SpMM by measured (simulated)
/// runtime among the power-of-two candidates, as in §4.2.
///
/// Returns `(group size, simulated seconds of the winner)`.
///
/// # Errors
///
/// Propagates compilation/simulation errors.
pub fn tune_group_size(coo: &Coo, b: &Tensor, options: &InsumOptions) -> Result<(usize, f64)> {
    let build = |g| GroupCoo::from_coo(coo, g).map(|gc| apps::spmm_group(&gc, b));
    fastest(&coo.occupancy(), "group conversion", options, build)
}

/// Select the BlockGroupCOO group size for structured SpMM by measured
/// runtime among the power-of-two candidates.
///
/// Returns `(group size, simulated seconds of the winner)`.
///
/// # Errors
///
/// Propagates compilation/simulation errors.
pub fn tune_block_group_size(
    bcoo: &BlockCoo,
    b: &Tensor,
    options: &InsumOptions,
) -> Result<(usize, f64)> {
    let build = |g| BlockGroupCoo::from_block_coo(bcoo, g).map(|f| apps::spmm_block_group(&f, b));
    let occ = bcoo.block_occupancy();
    fastest(&occ, "block group conversion", options, build)
}

/// The candidate `g` whose app `build(g)` simulates fastest (the first on
/// a tie); `op` names the format conversion in its errors.
fn fastest(
    occ: &[usize],
    op: &str,
    options: &InsumOptions,
    build: impl Fn(usize) -> insum_formats::Result<apps::BoundApp>,
) -> Result<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for g in pow2_candidates(occ) {
        let app = build(g).map_err(|e| {
            crate::InsumError::Tensor(insum_tensor::TensorError::ShapeMismatch {
                op: op.into(),
                detail: e.to_string(),
            })
        })?;
        let t = app.compile(options)?.time(&app.tensors)?.total_time();
        if best.as_ref().is_none_or(|&(_, bt)| t < bt) {
            best = Some((g, t));
        }
    }
    Ok(best.expect("at least one candidate"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use insum_tensor::DType;
    use insum_workloads::blocksparse::block_sparse_dense;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn candidates_bracket_the_estimate() {
        // occ with mean 16: center 4, candidates {2, 4, 8}.
        let occ = vec![16usize; 64];
        assert_eq!(pow2_candidates(&occ), vec![2, 4, 8]);
        // Tiny occupancies collapse to the single candidate 1.
        assert_eq!(pow2_candidates(&[1, 1, 1]), vec![1]);
        assert_eq!(pow2_candidates(&[]), vec![1]);
    }

    #[test]
    fn measured_selection_never_loses_to_plain_heuristic() {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = block_sparse_dense(512, 512, 32, 32, 0.95, &mut rng).cast(DType::F16);
        let b = insum_tensor::rand_uniform(vec![512, 128], -1.0, 1.0, &mut rng).cast(DType::F16);
        let bcoo = BlockCoo::from_dense(&a, 32, 32).expect("blocked");
        let opts = InsumOptions::default();
        let (g_tuned, t_tuned) = tune_block_group_size(&bcoo, &b, &opts).expect("tunes");

        let g_plain = insum_formats::heuristic::heuristic_group_size(&bcoo.block_occupancy());
        let bgc = BlockGroupCoo::from_block_coo(&bcoo, g_plain).expect("valid");
        let app = apps::spmm_block_group(&bgc, &b);
        let t_plain = app
            .compile(&opts)
            .expect("compiles")
            .time(&app.tensors)
            .expect("times")
            .total_time();
        assert!(
            t_tuned <= t_plain * 1.0001,
            "tuned g={g_tuned} {t_tuned:.3e} vs plain g={g_plain} {t_plain:.3e}"
        );
    }

    #[test]
    fn unstructured_tuning_runs() {
        let mut rng = SmallRng::seed_from_u64(2);
        let coo = insum_workloads::blocksparse::unstructured_coo(64, 64, 0.1, &mut rng);
        let b = insum_tensor::rand_uniform(vec![64, 32], -1.0, 1.0, &mut rng);
        let (g, t) = tune_group_size(&coo, &b, &InsumOptions::default()).expect("tunes");
        assert!(g >= 1);
        assert!(t > 0.0);
    }
}
