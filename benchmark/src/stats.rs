//! Order statistics over timing samples.

/// Linear-interpolated percentile (`p` in 0..=100) of `samples`; the
/// convention of NumPy's default and of `statistics.quantiles(...,
/// method="inclusive")`. NaN for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Distance between the quartiles as a share of the median: the
/// run-to-run (or pass-to-pass) spread a bound is compared with.
pub fn spread(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let med = percentile_sorted(&v, 50.0);
    if v.len() < 2 || med == 0.0 {
        return 0.0;
    }
    (percentile_sorted(&v, 75.0) - percentile_sorted(&v, 25.0)) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_ignore_input_order() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 25.0), 1.75);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn spread_is_interquartile_range_over_median() {
        assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0 / 3.0);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(spread(&[9.0]), 0.0);
    }
}
