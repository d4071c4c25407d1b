//! Order statistics for timing samples.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it: with fewer, one slow op moves the number. That
//! rule makes `p90` need 100 samples and `p99` need 1000.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered, highest last.
const TAILS: [(&str, f64); 3] = [("p90", 0.90), ("p99", 0.99), ("p99.9", 0.999)];

/// Nearest-rank percentile of `values` (`q` in `(0, 1]`); `None` when
/// there are no values.
fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(values);
    let rank = rank(sorted.len(), q)?;
    Some(sorted[rank - 1])
}

/// The median (nearest rank), `None` when there are no values.
pub fn p50(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// The 90th percentile, refused (`None`) unless at least [`MIN_BEYOND`]
/// samples lie beyond it, i.e. for fewer than 100 samples.
pub fn p90(values: &[f64]) -> Option<f64> {
    tail_at(values, 0.90)
}

/// The highest of p90, p99 and p99.9 with at least [`MIN_BEYOND`]
/// samples beyond it, with its label; `None` below 100 samples.
pub fn highest_tail(values: &[f64]) -> Option<(&'static str, f64)> {
    TAILS
        .iter()
        .rev()
        .find_map(|&(label, q)| tail_at(values, q).map(|v| (label, v)))
}

/// Arithmetic mean, `None` when there are no values.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// First quartile, median and third quartile by the exclusive method
/// (Python's `statistics.quantiles(values, n=4)`), the rule the
/// README's comparison uses; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    Some(std::array::from_fn(|i| {
        let scaled = (i + 1) * (n + 1);
        let j = (scaled / 4).clamp(1, n - 1);
        let delta = scaled as f64 - (4 * j) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    }))
}

fn tail_at(values: &[f64], q: f64) -> Option<f64> {
    let rank = rank(values.len(), q)?;
    (values.len() - rank >= MIN_BEYOND).then(|| sorted(values)[rank - 1])
}

/// One-based nearest rank: the smallest rank covering a `q` share. The
/// epsilon keeps `0.9 * 100` from rounding up to rank 91.
fn rank(n: usize, q: f64) -> Option<usize> {
    (n > 0).then(|| ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_uses_nearest_rank() {
        assert_eq!(p50(&[]), None);
        assert_eq!(p50(&[3.0]), Some(3.0));
        assert_eq!(p50(&ramp(5)), Some(3.0));
        assert_eq!(p50(&ramp(4)), Some(2.0));
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        assert_eq!(p90(&ramp(99)), None);
        assert_eq!(p90(&ramp(100)), Some(90.0));
        let beyond = ramp(100).iter().filter(|&&v| v > 90.0).count();
        assert_eq!(beyond, MIN_BEYOND);
    }

    #[test]
    fn highest_tail_keeps_ten_samples_beyond() {
        assert_eq!(highest_tail(&ramp(50)), None);
        assert_eq!(highest_tail(&ramp(100)), Some(("p90", 90.0)));
        assert_eq!(highest_tail(&ramp(999)), Some(("p90", 900.0)));
        assert_eq!(highest_tail(&ramp(1000)), Some(("p99", 990.0)));
        assert_eq!(highest_tail(&ramp(10_000)), Some(("p99.9", 9990.0)));
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0]), Some([1.25, 2.5, 8.25]));
        assert_eq!(quartiles(&ramp(5)), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
    }

    #[test]
    fn mean_of_nothing_is_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
