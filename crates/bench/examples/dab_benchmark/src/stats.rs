//! Order statistics over repeated measurements.

/// The `q`-quantile of `xs` (`0 <= q <= 1`) by the exclusive method of
/// Python's `statistics.quantiles` (Hyndman-Fan type 6): position
/// `q * (n + 1)`, interpolated linearly. Quartiles of three or more values
/// therefore match what a Python reader computes from the same values;
/// where Python would extrapolate past the smallest or largest value
/// (quartiles of one or two values), the position is clamped to the
/// sample instead.
///
/// # Panics
///
/// Panics on an empty sample or a NaN value.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measurement"));
    let h = (q * (v.len() + 1) as f64).clamp(1.0, v.len() as f64);
    let lo = h.floor() as usize;
    let frac = h - lo as f64;
    if lo == v.len() {
        v[lo - 1]
    } else {
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    }
}

/// Median, first and third quartile, and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes a non-empty sample.
    pub fn of(xs: &[f64]) -> Self {
        Self {
            median: quantile(xs, 0.5),
            q1: quantile(xs, 0.25),
            q3: quantile(xs, 0.75),
            n: xs.len(),
        }
    }

    /// Interquartile range as a share of the median (0 for a zero
    /// median, where a relative spread is meaningless).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.25), 2.75);
        assert_eq!(quantile(&xs, 0.5), 5.5);
        assert_eq!(quantile(&xs, 0.75), 8.25);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let xs = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(quantile(&xs, 0.25), 1.5);
        assert_eq!(quantile(&xs, 0.75), 4.5);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.25), 1.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.75), 3.0);
    }

    #[test]
    fn percentiles_clamp_to_the_sample() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        // 0.9 * 11 = 9.9: between the 9th and 10th values.
        assert!((quantile(&xs, 0.9) - 9.9).abs() < 1e-12);
        assert_eq!(quantile(&xs, 0.99), 10.0);
        assert_eq!(quantile(&xs, 0.01), 1.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.0);
    }

    #[test]
    fn summary_spread_is_relative_iqr() {
        let s = Summary::of(&[9.0, 10.0, 10.0, 11.0]);
        assert_eq!(s.median, 10.0);
        assert_eq!(s.n, 4);
        assert!((s.spread() - (s.q3 - s.q1) / 10.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }
}
