//! Exact order statistics over raw samples.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`); 0 for
/// an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `v` and returns its `q`-quantile.
pub fn quantile_of(v: &mut [u64], q: f64) -> u64 {
    v.sort_unstable();
    quantile(v, q)
}

/// Median of `v` (the mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
