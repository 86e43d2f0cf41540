//! Summary statistics over latency samples and measurement windows.

/// One completed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Index into the workload's op-type list.
    pub ty: u16,
    pub ns: u64,
    pub failed: bool,
}

/// Quantile `q` in [0, 1] of an ascending slice, linearly interpolated
/// between the two nearest ranks (so `q = 0.5` of an even count is the
/// mean of the middle pair). Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// Geometric mean; every value must be positive.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    (values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// (max - min) / median: how far apart a run's windows landed. `--compare`
/// calls a row unresolved when this exceeds the metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let mid = quantile(&s, 0.5);
    if mid == 0.0 {
        return 0.0;
    }
    (s[s.len() - 1] - s[0]) / mid.abs()
}

/// A failed op stays in the latency sample at the window's maximum
/// latency, so failures can only worsen a percentile.
pub fn penalize_failures(samples: &mut [Sample]) {
    let worst = samples.iter().map(|s| s.ns).max().unwrap_or(0);
    for s in samples.iter_mut().filter(|s| s.failed) {
        s.ns = worst;
    }
}

/// Latencies in milliseconds, ascending.
pub fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    sorted(samples.iter().map(|s| s.ns as f64 / 1e6).collect())
}

/// Per-op-type median latency in ms; `None` for a type with no samples.
pub fn per_type_median_ms(samples: &[Sample], n_types: usize) -> Vec<Option<f64>> {
    let mut by_type: Vec<Vec<f64>> = vec![Vec::new(); n_types];
    for s in samples {
        by_type[s.ty as usize].push(s.ns as f64 / 1e6);
    }
    by_type.into_iter().map(|v| if v.is_empty() { None } else { Some(median(&v)) }).collect()
}

/// Geometric mean over op types of the per-type median (TPC-D's QppD
/// shape): a fast common op cannot hide a slow rare one.
pub fn geomean_of_type_medians_ms(samples: &[Sample], n_types: usize) -> f64 {
    let medians: Vec<f64> = per_type_median_ms(samples, n_types).into_iter().flatten().collect();
    geomean(&medians)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ty: u16, ns: u64) -> Sample {
        Sample { ty, ns, failed: false }
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!((quantile(&v, 0.95) - 3.85).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn median_window_is_the_middle_one() {
        assert_eq!(median(&[90.0, 110.0, 100.0]), 100.0);
        assert_eq!(median(&[5.0, 1.0]), 3.0);
    }

    #[test]
    fn geomean_matches_definition() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_over_types_is_not_hidden_by_a_common_fast_op() {
        // 100 fast ops of type 0 and one slow op of type 1.
        let mut samples: Vec<Sample> = (0..100).map(|_| sample(0, 1_000_000)).collect();
        samples.push(sample(1, 100_000_000));
        let g = geomean_of_type_medians_ms(&samples, 3);
        assert!((g - 10.0).abs() < 1e-9, "types without samples are skipped: {g}");
    }

    #[test]
    fn spread_is_range_over_median() {
        assert!((spread(&[95.0, 100.0, 105.0]) - 0.1).abs() < 1e-12);
        assert_eq!(spread(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn failures_are_entered_at_the_maximum() {
        let mut samples = vec![sample(0, 10), sample(0, 50), Sample { ty: 0, ns: 1, failed: true }];
        penalize_failures(&mut samples);
        assert_eq!(samples[2].ns, 50);
        assert_eq!(latencies_ms(&samples).last().copied(), Some(50.0 / 1e6));
    }
}
