//! The harness's own arithmetic: nearest-rank percentiles over raw
//! samples, with the rule that a percentile is only reported when at
//! least ten samples lie beyond it.
//!
//! Percentiles never come from histogram buckets: `BENCH_serve.json`'s
//! p50 of exactly 0.268435 s is the 2²⁸ ns bucket edge of
//! `insum_telemetry::Histogram`, not a latency.

/// Samples a percentile needs beyond it before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Index (0-based) of the nearest-rank `p`-th percentile in a sorted
/// sample of `n`: the smallest rank whose share of the sample is at
/// least `p`.
fn rank_index(n: usize, p: f64) -> usize {
    debug_assert!(n > 0 && (0.0..=1.0).contains(&p));
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank_index(sorted.len(), p)]
}

/// [`nearest_rank`], or `None` when fewer than [`MIN_BEYOND`] samples
/// lie beyond the percentile (above it for `p ≥ 0.5`; on the thinner
/// side in general), so that a tail is never one outlier.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = rank_index(sorted.len(), p);
    let beyond = (sorted.len() - 1 - idx).min(idx + 1);
    (beyond >= MIN_BEYOND).then(|| sorted[idx])
}

pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank median of a small repetition set (set-up repetitions,
/// per-layer self times), where the count is printed beside the value
/// instead of being gated.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    nearest_rank(&sorted(samples.to_vec()), 0.5)
}

/// Equal slices a timed window is cut into, and how many of them — the
/// ones with the highest throughput — the timing metrics are taken from.
///
/// One-second slices at `run_seconds` = 20. Shorter slices dodge
/// interference better, but a slice must stay long against anything the
/// program itself does periodically: a stall every fifty operations
/// lands in every one-second slice of every workload and so stays in
/// the sample, where quarter-second slices would let the ranking drop
/// exactly the slices that hold it.
pub const SEGMENTS: usize = 20;
pub const QUIET_SEGMENTS: usize = 6;

/// The operations of a window's quietest segments.
#[derive(Debug, PartialEq)]
pub struct Quiet {
    /// Latencies of the operations that completed in the kept segments.
    pub latencies: Vec<f64>,
    /// Wall time the kept segments cover, seconds.
    pub wall_s: f64,
}

/// Cut a window into `segments` equal slices of wall time, rank the
/// slices by throughput and keep the operations of the `keep` fastest.
///
/// The reference box is a shared host: for seconds at a time everything
/// runs 10–25 % slower, whatever the program does. Interference only
/// ever slows a run down, so the slices with the highest throughput are
/// the ones that say most about the program; a stall the program itself
/// causes every so many operations lands in every slice and stays in.
///
/// `completed_at[i]` is when operation `i` completed, in seconds since
/// the window opened, non-decreasing. A slice spans from the last
/// completion before it to its own last completion, so operations that
/// straddle a boundary are neither lost nor counted twice.
pub fn quiet(
    latencies: &[f64],
    completed_at: &[f64],
    wall_s: f64,
    segments: usize,
    keep: usize,
) -> Quiet {
    assert_eq!(latencies.len(), completed_at.len());
    let slice = wall_s / segments as f64;
    let last = segments;
    // (first op, one past the last op, wall covered) per slice.
    let mut segments: Vec<(usize, usize, f64)> = Vec::with_capacity(last);
    let (mut first, mut opened_at) = (0, 0.0);
    for k in 1..=last {
        let until = if k == last {
            f64::INFINITY
        } else {
            k as f64 * slice
        };
        let end = first + completed_at[first..].partition_point(|&t| t <= until);
        if end > first {
            let closed_at = completed_at[end - 1];
            segments.push((first, end, closed_at - opened_at));
            (first, opened_at) = (end, closed_at);
        }
    }
    let rate = |&(a, b, wall): &(usize, usize, f64)| (b - a) as f64 / wall;
    segments.sort_by(|x, y| rate(y).total_cmp(&rate(x)));
    segments.truncate(keep);
    Quiet {
        latencies: segments
            .iter()
            .flat_map(|&(a, b, _)| latencies[a..b].iter().copied())
            .collect(),
        wall_s: segments.iter().map(|s| s.2).sum(),
    }
}

/// Share of a public call's wall time that the replayed step spans
/// account for.
pub fn coverage_share(replayed_seconds: f64, public_seconds: f64) -> f64 {
    if public_seconds > 0.0 {
        replayed_seconds / public_seconds
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        // Classic example: {15, 20, 35, 40, 50}.
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&s, 0.05), 15.0);
        assert_eq!(nearest_rank(&s, 0.30), 20.0);
        assert_eq!(nearest_rank(&s, 0.40), 20.0);
        assert_eq!(nearest_rank(&s, 0.50), 35.0);
        assert_eq!(nearest_rank(&s, 1.00), 50.0);
        // Never interpolates: the result is always a sample.
        assert_eq!(nearest_rank(&ramp(100), 0.99), 99.0);
        assert_eq!(nearest_rank(&ramp(100), 0.90), 90.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // p90 of 100 samples has exactly ten beyond it; of 99, nine.
        assert_eq!(percentile(&ramp(100), 0.90), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.90), None);
        // p99 needs a thousand samples.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // The median needs ten on each side.
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_is_order_independent() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quiet_keeps_the_fastest_slices() {
        // A serial run of 100 s: operations take 1 s, except during two
        // stretches of interference (slices 2–3 and 6–9 of ten) where
        // they take 2 s. Completion times are the running sum.
        let mut latencies = Vec::new();
        let mut completed_at = Vec::new();
        let mut now = 0.0;
        while now < 100.0 {
            let slice = (now / 10.0) as usize;
            let l = if matches!(slice, 2 | 3 | 6..=9) {
                2.0
            } else {
                1.0
            };
            now += l;
            latencies.push(l);
            completed_at.push(now);
        }
        let q = quiet(&latencies, &completed_at, now, 10, 3);
        // Three undisturbed slices of ten operations each are kept.
        assert_eq!(q.latencies, vec![1.0; 30]);
        assert!((q.wall_s - 30.0).abs() < 1e-9);
    }

    #[test]
    fn quiet_loses_no_operation_at_a_boundary() {
        // Overlapping requests: three complete inside every second. With
        // all slices equally fast, the kept ones hold exactly their share.
        let completed_at: Vec<f64> = (1..=300).map(|i| i as f64 / 3.0).collect();
        let latencies = vec![0.5; 300];
        let q = quiet(&latencies, &completed_at, 100.0, 10, 3);
        assert_eq!(q.latencies.len(), 90);
        assert!((q.wall_s - 30.0).abs() < 1e-9);
        // A periodic stall of the program's own lands in every slice and
        // survives the selection.
        let latencies: Vec<f64> = (0..300)
            .map(|i| if i % 10 == 0 { 5.0 } else { 0.5 })
            .collect();
        let q = quiet(&latencies, &completed_at, 100.0, 10, 3);
        assert_eq!(q.latencies.iter().filter(|&&l| l == 5.0).count(), 9);
    }

    #[test]
    fn quiet_tolerates_empty_slices() {
        // Two operations in a window of ten slices.
        let q = quiet(&[4.0, 4.0], &[4.0, 8.0], 10.0, 10, 3);
        assert_eq!(q.latencies.len(), 2);
        assert!((q.wall_s - 8.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_is_a_plain_share() {
        assert_eq!(coverage_share(0.9, 1.0), 0.9);
        assert_eq!(coverage_share(1.0, 0.0), 0.0);
        assert!(coverage_share(1.2, 1.0) > 1.0, "over-coverage is visible");
    }
}
