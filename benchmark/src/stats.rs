//! Order statistics for repeated measurements.

/// Median, first and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles by Python's `statistics.quantiles(values, n=4)` (the
    /// default "exclusive" method), so numbers printed here match what
    /// an outside script computes from the same values. `None` when
    /// `values` is empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return None;
        }
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            midpoint(v[n / 2 - 1], v[n / 2])
        };
        if n == 1 {
            return Some(Summary {
                median,
                q1: median,
                q3: median,
                n,
            });
        }
        let quartile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            let (lo, hi) = (v[j - 1], v[j]);
            if lo == hi {
                // Keeps infinities (failed requests) from becoming NaN.
                lo
            } else {
                (lo * (4.0 - delta) + hi * delta) / 4.0
            }
        };
        Some(Summary {
            median,
            q1: quartile(1),
            q3: quartile(3),
            n,
        })
    }

    /// Interquartile distance as a share of the median (0 for an exact
    /// metric; infinite when the median is 0 but the spread is not).
    pub fn spread(&self) -> f64 {
        let iqr = self.q3 - self.q1;
        if iqr == 0.0 || iqr.is_nan() {
            0.0
        } else {
            iqr / self.median.abs()
        }
    }
}

fn midpoint(a: f64, b: f64) -> f64 {
    if a == b {
        a
    } else {
        (a + b) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample.
pub fn percentile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * values.len() as f64).ceil() as usize).max(1);
    Some(values[rank.min(values.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[3.0, 1.0, 2.0, 5.0, 4.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[2.0]).map(|s| s.spread()), Some(0.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), Some(500.0));
        assert_eq!(percentile(&mut v, 0.999), Some(999.0));
        assert_eq!(percentile(&mut [], 0.5), None);
    }
}
