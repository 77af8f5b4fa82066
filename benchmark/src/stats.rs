//! Order statistics used by the run report and by `compare`.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p`% of the samples at or below it
/// (rank `⌈p·N/100⌉`, 1-indexed). `None` for an empty slice.
#[must_use]
pub fn nearest_rank(sorted: &[f64], p: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (u64::from(p) * n as u64).div_ceil(100) as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The highest whole percentile (at most 99) whose nearest-rank sample has
/// at least ten samples beyond it — the tail a sample of size `n` can
/// support. `None` when not even the median has ten samples beyond it. The
/// workloads' fixed `TAIL_PCT`s follow this rule; the tests check them.
#[cfg(test)]
#[must_use]
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99u32)
        .rev()
        .find(|&p| n - (u64::from(p) * n as u64).div_ceil(100) as usize >= 10)
}

/// Median (mean of the middle pair for even counts). `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. `None` for fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Ascending copy of `values` (NaN-free by construction: every sample is a
/// measured duration or count).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50), Some(5.0));
        assert_eq!(nearest_rank(&s, 51), Some(6.0));
        assert_eq!(nearest_rank(&s, 99), Some(10.0));
        assert_eq!(nearest_rank(&s, 0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 99), Some(7.0));
        assert_eq!(nearest_rank(&[], 50), None);
        // p99 of 67 samples is the 67th, never the 66th.
        let s: Vec<f64> = (1..=67).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 99), Some(67.0));
    }

    #[test]
    fn tail_is_p99_for_1000_to_9999_samples() {
        for n in [1000, 1001, 2000, 4000, 9999] {
            assert_eq!(tail_percentile(n), Some(99), "n = {n}");
        }
        assert_eq!(tail_percentile(10_000), Some(99));
        // 999 samples leave only 9 beyond p99.
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(213), Some(95));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(3), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
