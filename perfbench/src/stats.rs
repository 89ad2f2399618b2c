//! Summary statistics over latency samples.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Median of `values` (the mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of `values` (0 for none).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Harrell–Davis estimate of the `p`-quantile: a Beta(p(N+1), (1-p)(N+1))
/// weighted average of all order statistics (weights taken at the rank
/// midpoints). Unlike a single order statistic it stays steady when the
/// quantile falls on the boundary between two request classes of a mixed
/// workload, where the plain sample quantile jumps between the classes.
pub fn hd_quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let a = p * (n + 1.0);
    let b = (1.0 - p) * (n + 1.0);
    let log_w: Vec<f64> = (0..v.len())
        .map(|i| {
            let x = (i as f64 + 0.5) / n;
            (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()
        })
        .collect();
    let top = log_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut num, mut den) = (0.0, 0.0);
    for (lw, x) in log_w.iter().zip(&v) {
        let w = (lw - top).exp();
        num += w * x;
        den += w;
    }
    num / den
}

/// A percentile with the sample count behind it.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    /// The estimate.
    pub value: f64,
    /// Samples the estimate was taken over.
    pub samples: usize,
    /// Samples beyond the percentile rank (`⌊N·(1-p)⌋`).
    pub beyond: usize,
}

/// The `p`-percentile of `values`, or `None` when fewer than [`MIN_TAIL`]
/// samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    // The epsilon keeps e.g. 100 × 0.1 from flooring to 9.
    let beyond = (values.len() as f64 * (1.0 - p) + 1e-9).floor() as usize;
    if beyond < MIN_TAIL {
        return None;
    }
    Some(Percentile { value: hd_quantile(values, p), samples: values.len(), beyond })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hd_quantile_matches_order_statistics_on_uniform_data() {
        let v: Vec<f64> = (0..1001).map(f64::from).collect();
        assert!((hd_quantile(&v, 0.5) - 500.0).abs() < 1.0);
        assert!((hd_quantile(&v, 0.9) - 900.0).abs() < 2.0);
    }

    #[test]
    fn percentile_requires_a_tail() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(percentile(&v, 0.9).is_none());
        assert_eq!(percentile(&v, 0.5).map(|p| p.beyond), Some(49));
    }
}
