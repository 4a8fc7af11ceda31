//! Order statistics for the end-to-end metrics.

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a sample: the value at the highest percentile that still
/// has at least ten samples strictly beyond it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// The percentile it sits at: the share of samples at or below it.
    pub percentile: f64,
    /// The sample count the percentile is taken over.
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The [`Tail`] of `xs`. With ten samples or fewer no rank has ten beyond
/// it, so the maximum is reported at the 100th percentile.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return Tail {
            value: v.last().copied().unwrap_or(0.0),
            percentile: 100.0,
            samples: n,
        };
    }
    let rank = n - TAIL_BEYOND - 1;
    Tail {
        value: v[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 90.0).abs() < 1e-9);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[5.0, 1.0, 9.0]);
        assert_eq!((t.value, t.percentile, t.samples), (9.0, 100.0, 3));
        let t = tail(&(0..11).map(f64::from).collect::<Vec<_>>());
        assert_eq!(
            t.value, 0.0,
            "eleven samples: the minimum has ten beyond it"
        );
    }
}
