//! Order statistics the benchmark reports: nearest-rank percentiles and
//! throughput from the median of each job's repeats.

/// The nearest-rank `percent`-th percentile of `sorted` (ascending): the
/// smallest sample such that at least `percent`% of the samples are at or
/// below it. `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], percent: u32) -> Option<f64> {
    let rank = rank_of(sorted.len(), percent)?;
    Some(sorted[rank - 1])
}

/// The 1-based nearest rank `ceil(percent · n / 100)`, clamped to `1..=n`.
fn rank_of(n: usize, percent: u32) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let percent = percent.min(100) as usize;
    Some((percent * n).div_ceil(100).max(1))
}

/// How many samples lie strictly beyond the nearest-rank `percent`-th
/// percentile of `n` samples.
pub fn samples_beyond(n: usize, percent: u32) -> usize {
    rank_of(n, percent).map_or(0, |rank| n - rank)
}

/// The nearest-rank `percent`-th percentile, reported only when at least
/// `min_beyond` samples lie beyond it (fewer make a tail figure noise).
pub fn tail_percentile(sorted: &[f64], percent: u32, min_beyond: usize) -> Option<f64> {
    if samples_beyond(sorted.len(), percent) < min_beyond {
        return None;
    }
    nearest_rank(sorted, percent)
}

/// The median; for an even count, the mean of the two middle samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Batch throughput from per-job times: each distinct job contributes its
/// work and the median of its repeats' times, and the result is total work
/// over the summed medians. A slow outlier repeat moves nothing.
///
/// # Panics
///
/// Panics if a job has no repeats or the summed medians are not positive.
pub fn median_throughput(jobs: &[(f64, Vec<f64>)]) -> f64 {
    let work: f64 = jobs.iter().map(|(work, _)| work).sum();
    let seconds: f64 = jobs.iter().map(|(_, times)| median(times)).sum();
    assert!(seconds > 0.0, "throughput over zero time");
    work / seconds
}

/// Median seconds of `reps` runs of `f`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_takes_the_ceiling_rank() {
        let samples = ascending(10);
        assert_eq!(nearest_rank(&samples, 50), Some(5.0));
        assert_eq!(nearest_rank(&samples, 90), Some(9.0));
        assert_eq!(nearest_rank(&samples, 91), Some(10.0));
        assert_eq!(nearest_rank(&samples, 100), Some(10.0));
        assert_eq!(nearest_rank(&samples, 0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50), None);
    }

    #[test]
    fn nearest_rank_on_even_and_odd_counts() {
        // Nearest rank never interpolates: the even-count p50 is the lower
        // middle sample, unlike the median.
        assert_eq!(nearest_rank(&ascending(4), 50), Some(2.0));
        assert_eq!(nearest_rank(&ascending(5), 50), Some(3.0));
        assert_eq!(nearest_rank(&ascending(20), 95), Some(19.0));
        assert_eq!(nearest_rank(&ascending(100), 95), Some(95.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 is rank 90, leaving exactly 10 beyond it.
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(tail_percentile(&ascending(100), 90, 10), Some(90.0));
        // 99 samples: rank ceil(89.1) = 90, only 9 beyond.
        assert_eq!(samples_beyond(99, 90), 9);
        assert_eq!(tail_percentile(&ascending(99), 90, 10), None);
        // 102 samples (even): rank ceil(91.8) = 92, 10 beyond.
        assert_eq!(samples_beyond(102, 90), 10);
        assert_eq!(tail_percentile(&ascending(102), 90, 10), Some(92.0));
        // p99 needs a thousand samples.
        assert_eq!(samples_beyond(999, 99), 9);
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(samples_beyond(0, 90), 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn throughput_uses_each_jobs_median_repeat() {
        // Job A: 10 units, repeats 1 s, 1 s, 9 s (outlier) -> median 1 s.
        // Job B: 30 units, repeats 2 s, 4 s -> median 3 s.
        let jobs = vec![(10.0, vec![1.0, 9.0, 1.0]), (30.0, vec![2.0, 4.0])];
        assert_eq!(median_throughput(&jobs), 40.0 / 4.0);
    }

    #[test]
    fn throughput_ignores_repeat_order() {
        let a = vec![(5.0, vec![0.5, 0.2, 0.3])];
        let b = vec![(5.0, vec![0.3, 0.5, 0.2])];
        assert_eq!(median_throughput(&a), median_throughput(&b));
        assert_eq!(median_throughput(&a), 5.0 / 0.3);
    }
}
