//! Order statistics for the harness: medians, quartiles as Python's
//! `statistics.quantiles(values, n=4)` computes them (the driver uses that
//! function, so the spreads printed here match the ones it judges), and
//! percentiles that refuse to speak without enough samples behind them.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least one pass.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile by the exclusive method
/// (`statistics.quantiles(values, n=4)`). A single sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1], delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// A percentile together with the number of samples it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank percentile value.
    pub value: f64,
    /// Samples the percentile was computed over.
    pub samples: usize,
}

/// Nearest-rank percentile `p` (in `(0, 1)`) of ascending `sorted`
/// samples. Returns `None` when fewer than [`MIN_TAIL_SAMPLES`] samples
/// lie beyond the requested rank: a p99 over 300 calls is three samples,
/// not a tail.
pub fn percentile(sorted: &[u64], p: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(Percentile {
        value: sorted[rank - 1] as f64,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentile_states_its_sample_count() {
        let v: Vec<u64> = (1..=2000).collect();
        let p = percentile(&v, 0.99).expect("20 samples beyond p99");
        assert_eq!(p.samples, 2000);
        assert_eq!(p.value, 1980.0);
        assert_eq!(percentile(&v, 0.5).unwrap().value, 1000.0);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // 999 samples leave 9 beyond the p99 rank; 1000 leave exactly 10.
        let thin: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&thin, 0.99), None);
        let enough: Vec<u64> = (1..=1000).collect();
        assert!(percentile(&enough, 0.99).is_some());
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&enough, 1.0), None);
    }
}
