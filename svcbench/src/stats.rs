//! Order statistics.

use std::time::Duration;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (`None` when empty).
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q)])
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The `q`-quantile, but only when at least [`TAIL_SAMPLES`] samples lie
/// beyond its rank; `None` otherwise.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    (n > 0 && n - 1 - rank(n, q) >= TAIL_SAMPLES)
        .then(|| quantile(samples, q))
        .flatten()
}

/// Zero-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Durations in milliseconds.
pub fn ms(durations: impl IntoIterator<Item = Duration>) -> Vec<f64> {
    durations
        .into_iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect()
}

/// Durations in microseconds.
pub fn us(durations: impl IntoIterator<Item = Duration>) -> Vec<f64> {
    durations
        .into_iter()
        .map(|d| d.as_secs_f64() * 1e6)
        .collect()
}

/// `num / den`, or `None` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&[3.0], 0.99), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Some(990.0));
    }
}
