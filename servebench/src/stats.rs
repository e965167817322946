//! Order statistics over samples.

/// A percentile the sample supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, e.g. 99.0.
    pub pct: f64,
    pub value: f64,
    /// Sample count it was taken from.
    pub n: usize,
}

/// 1-based nearest rank of quantile `q` among `n` samples. The slack
/// keeps `0.999 * 10_000` from rounding up past 9990.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of sorted samples (`q` in `0..=1`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples strictly above the nearest-rank `q` quantile's position.
fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `pct` if at least ten samples lie beyond it, else `None`.
pub fn supported(sorted: &[f64], pct: f64) -> Option<Tail> {
    (sorted.len() >= 10 && beyond(sorted.len(), pct / 100.0) >= 10).then(|| Tail {
        pct,
        value: quantile(sorted, pct / 100.0),
        n: sorted.len(),
    })
}

/// The highest of the usual percentiles with at least ten samples
/// beyond it.
pub fn highest_supported(sorted: &[f64]) -> Option<Tail> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find_map(|p| supported(sorted, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = ramp(100);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn highest_supported_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let t = highest_supported(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));
        // 999 samples: p99 leaves 9 beyond, so p95 is the highest.
        let t = highest_supported(&ramp(999)).unwrap();
        assert_eq!((t.pct, t.n), (95.0, 999));
        // 10_000 samples support p99.9.
        assert_eq!(highest_supported(&ramp(10_000)).unwrap().pct, 99.9);
        assert!(supported(&ramp(999), 99.0).is_none());
        assert!(supported(&ramp(1000), 99.0).is_some());
        // Too few for any tail at all.
        assert!(highest_supported(&ramp(15)).is_none());
        assert_eq!(highest_supported(&ramp(20)).unwrap().pct, 50.0);
    }
}
