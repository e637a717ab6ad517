//! Shared helpers for the benchmark harnesses, and [`paper`]: every table
//! and figure of the paper as one table of experiments (see
//! EXPERIMENTS.md for the index and the scaled problem sizes).

pub mod paper;

use insum::apps::BoundApp;
use insum::{InsumOptions, Tensor};
use insum_formats::{BlockCoo, BlockGroupCoo};
use insum_tensor::DType;
use insum_workloads::blocksparse::block_sparse_dense;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Geometric mean of positive values.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let logs: Vec<f64> = xs.into_iter().map(f64::ln).collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Print an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Compile and time a bound application, returning simulated seconds.
///
/// # Panics
///
/// Panics on compilation or simulation errors (benchmark harness policy:
/// fail loudly).
pub fn time_app(app: &BoundApp, opts: &InsumOptions) -> f64 {
    let compiled = app.compile(opts).expect("compilation succeeds");
    compiled
        .time(&app.tensors)
        .expect("simulation succeeds")
        .total_time()
}

/// Draw a block-sparse FP16 `n`×`n` matrix (32×32 blocks at `sparsity`),
/// in dense and BlockCOO form, and a dense FP16 `n`×`cols` `B`.
pub fn block_sparse_operands(
    n: usize,
    cols: usize,
    sparsity: f64,
    seed: u64,
) -> (Tensor, BlockCoo, Tensor) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dense = block_sparse_dense(n, n, 32, 32, sparsity, &mut rng).cast(DType::F16);
    let b = insum_tensor::rand_uniform(vec![n, cols], -1.0, 1.0, &mut rng).cast(DType::F16);
    let bcoo = BlockCoo::from_dense(&dense, 32, 32).expect("extents divide block size");
    (dense, bcoo, b)
}

/// The structured-SpMM workload: [`block_sparse_operands`] with `A` in
/// BlockGroupCOO at the heuristic group size.
pub fn structured_spmm_setup(
    n: usize,
    cols: usize,
    sparsity: f64,
    seed: u64,
) -> (Tensor, BlockGroupCoo, Tensor) {
    let (dense, bcoo, b) = block_sparse_operands(n, cols, sparsity, seed);
    let g = insum_formats::heuristic::heuristic_group_size(&bcoo.block_occupancy());
    let bgc = BlockGroupCoo::from_block_coo(&bcoo, g).expect("valid group size");
    (dense, bgc, b)
}

/// Format seconds as microseconds with 2 decimals.
pub fn us(t: f64) -> String {
    format!("{:.2}", t * 1e6)
}

/// Format a speedup ratio.
pub fn x(r: f64) -> String {
    format!("{r:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean([]), 0.0);
    }

    #[test]
    fn structured_setup_consistent() {
        let (dense, bgc, b) = structured_spmm_setup(128, 64, 0.8, 1);
        assert_eq!(dense.shape(), &[128, 128]);
        assert_eq!(b.shape(), &[128, 64]);
        assert_eq!(bgc.to_dense(), dense);
    }

    #[test]
    fn time_app_returns_positive_time() {
        let (_, bgc, b) = structured_spmm_setup(128, 64, 0.8, 2);
        let app = insum::apps::spmm_block_group(&bgc, &b);
        let t = time_app(&app, &InsumOptions::default());
        assert!(t > 0.0);
    }
}
