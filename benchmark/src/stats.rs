//! Order statistics over latency samples.

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Percentile of the tail latency.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// Fewest samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail latency: the nearest-rank [`TAIL_PERCENTILE`] value, or, when
/// that leaves fewer than [`TAIL_BEYOND`] samples beyond it, the
/// eleventh-largest sample; with eleven samples or fewer, the maximum.
/// Returns `(value, percentile, samples beyond)`.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN, 0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (TAIL_PERCENTILE / 100.0 * n as f64).ceil() as usize;
    let idx = if n <= TAIL_BEYOND {
        n - 1
    } else {
        rank.saturating_sub(1).min(n - 1 - TAIL_BEYOND)
    };
    (
        sorted[idx],
        100.0 * (idx + 1) as f64 / n as f64,
        n - 1 - idx,
    )
}

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_p90_with_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&values), (900.0, 90.0, 100));
        let values: Vec<f64> = (1..=50).map(f64::from).collect();
        let (v, p, beyond) = tail(&values);
        assert_eq!((v, p, beyond), (40.0, 80.0, TAIL_BEYOND));
        assert_eq!(values.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
        assert_eq!(tail(&[5.0, 7.0]), (7.0, 100.0, 0));
    }
}
