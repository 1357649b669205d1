//! Order statistics for per-op host times.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The tail percentile a run can support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (95 when the run is long enough).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples in the run.
    pub samples: usize,
    /// Samples above the reported rank.
    pub beyond: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The 95th percentile by nearest rank when at least [`MIN_BEYOND`] samples
/// lie beyond it (200 samples or more); otherwise the highest percentile
/// that still has [`MIN_BEYOND`] beyond it. With too few samples for any,
/// the median.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "tail of nothing");
    let rank95 = (0.95 * n as f64).ceil() as usize;
    let (percentile, value, rank) = if n - rank95 >= MIN_BEYOND {
        (95.0, sorted[rank95 - 1], rank95)
    } else if n > MIN_BEYOND {
        let rank = n - MIN_BEYOND;
        (100.0 * rank as f64 / n as f64, sorted[rank - 1], rank)
    } else {
        (50.0, median(&sorted), n.div_ceil(2))
    };
    Tail {
        percentile,
        value,
        samples: n,
        beyond: n - rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p95_needs_ten_samples_beyond() {
        let t = tail(&ramp(200));
        assert_eq!(
            (t.percentile, t.value, t.samples, t.beyond),
            (95.0, 190.0, 200, 10)
        );
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value), (95.0, 950.0));
    }

    #[test]
    fn short_runs_fall_back_to_the_highest_supported_percentile() {
        let t = tail(&ramp(199));
        assert_eq!(t.value, 189.0);
        assert!(t.percentile < 95.0 && t.percentile > 94.9);
        let t = tail(&ramp(100));
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        let t = tail(&ramp(11));
        assert_eq!((t.value, t.beyond), (1.0, 10));
        let t = tail(&ramp(10));
        assert_eq!((t.percentile, t.value), (50.0, 5.5));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut values = ramp(300);
        values.reverse();
        assert_eq!(tail(&values).value, 285.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
