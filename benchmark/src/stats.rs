//! Order statistics used for every reported number.

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank `ceil(p/100 * n)`, clamped to `1..=n`. Nearest rank never
/// interpolates, so a reported latency is always one that was observed.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[percentile_rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` in a sample of `n`.
pub fn percentile_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// How many samples lie strictly above the percentile's rank: a tail
/// percentile is only reported with at least ten of them behind it.
pub fn samples_above(n: usize, p: f64) -> usize {
    n - percentile_rank(n, p)
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Cuts `samples` into consecutive blocks of the given lengths and
/// returns each block's nearest-rank median (empty blocks are skipped).
pub fn block_medians(samples: &[f32], lens: impl Iterator<Item = usize>) -> Vec<f64> {
    let mut at = 0;
    let mut medians = Vec::new();
    for len in lens {
        let mut v: Vec<f64> = samples[at..at + len]
            .iter()
            .map(|&x| f64::from(x))
            .collect();
        at += len;
        if !v.is_empty() {
            v.sort_by(f64::total_cmp);
            medians.push(percentile(&v, 50.0));
        }
    }
    medians
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_observed_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let w = [3.0, 7.0, 9.0];
        assert_eq!(percentile(&w, 50.0), 7.0);
        assert_eq!(percentile(&w, 90.0), 9.0);
    }

    #[test]
    fn rank_rule_and_tail_count() {
        assert_eq!(percentile_rank(10, 90.0), 9);
        assert_eq!(percentile_rank(11, 90.0), 10);
        assert_eq!(percentile_rank(1, 50.0), 1);
        assert_eq!(samples_above(100, 90.0), 10);
        assert_eq!(samples_above(99, 90.0), 9);
        assert_eq!(samples_above(160, 90.0), 16);
    }

    #[test]
    fn block_medians_follow_the_block_lengths() {
        let s = [1.0, 3.0, 2.0, 9.0, 7.0, 8.0, 6.0];
        assert_eq!(block_medians(&s, [3, 4].into_iter()), vec![2.0, 7.0]);
        assert_eq!(block_medians(&s, [3, 0, 4].into_iter()), vec![2.0, 7.0]);
        assert_eq!(block_medians(&[4.0, 2.0], [2].into_iter()), vec![2.0]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
