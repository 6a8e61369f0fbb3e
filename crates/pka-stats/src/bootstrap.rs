//! Bootstrap confidence intervals for suite-level aggregates.
//!
//! The paper reports suite means and geomeans as point estimates; when this
//! reproduction's harness aggregates 27 Rodinia errors into one number, a
//! resampled confidence interval says how much that number should be
//! trusted. Deterministic: the resampling stream is seeded.

use crate::hash::UnitStream;
use crate::summary::{geomean, mean, percentile};

/// A two-sided bootstrap confidence interval around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// The statistic computed on the original sample.
    pub estimate: f64,
    /// Lower bound.
    pub low: f64,
    /// Upper bound.
    pub high: f64,
    /// The confidence level used, e.g. 0.95.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        (self.high - self.low) / 2.0
    }

    /// Returns `true` if `value` lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        (self.low..=self.high).contains(&value)
    }
}

const RESAMPLES: usize = 1_000;

/// Percentile-bootstrap confidence interval of an arbitrary statistic.
///
/// # Panics
///
/// Panics if `xs` is empty or `level` is outside `(0, 1)`.
///
/// # Examples
///
/// ```
/// use pka_stats::bootstrap::{bootstrap_ci, ConfidenceInterval};
/// use pka_stats::summary::mean;
///
/// let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
/// let ci = bootstrap_ci(&xs, mean, 0.95, 7);
/// assert!(ci.contains(3.0));
/// assert!(ci.low < ci.high);
/// ```
pub fn bootstrap_ci(
    xs: &[f64],
    statistic: fn(&[f64]) -> f64,
    level: f64,
    seed: u64,
) -> ConfidenceInterval {
    assert!(!xs.is_empty(), "bootstrap needs at least one sample");
    assert!(
        level > 0.0 && level < 1.0,
        "confidence level must be in (0, 1)"
    );
    let estimate = statistic(xs);
    let mut rng = UnitStream::new(seed ^ 0x1357_9bdf_2468_aceb);
    let mut stats = Vec::with_capacity(RESAMPLES);
    let mut resample = vec![0.0; xs.len()];
    for _ in 0..RESAMPLES {
        for slot in resample.iter_mut() {
            *slot = xs[draw_index(rng.next_f64(), xs.len())];
        }
        stats.push(statistic(&resample));
    }
    let alpha = (1.0 - level) / 2.0 * 100.0;
    ConfidenceInterval {
        estimate,
        low: percentile(&stats, alpha),
        high: percentile(&stats, 100.0 - alpha),
        level,
    }
}

/// The resample index of a uniform draw `u` in `[0, 1)` over `n` samples:
/// `(u * n) as usize % n`. The product reaches `n` only by rounding, so a
/// compare and subtract replace the 64-bit division.
fn draw_index(u: f64, n: usize) -> usize {
    let idx = (u * n as f64) as usize;
    if idx >= n {
        idx - n
    } else {
        idx
    }
}

/// Bootstrap interval around the arithmetic mean.
///
/// # Panics
///
/// Same conditions as [`bootstrap_ci`].
pub fn mean_ci(xs: &[f64], level: f64, seed: u64) -> ConfidenceInterval {
    bootstrap_ci(xs, mean, level, seed)
}

/// Bootstrap interval around the geometric mean (the paper's speedup
/// aggregate).
///
/// # Panics
///
/// Same conditions as [`bootstrap_ci`].
pub fn geomean_ci(xs: &[f64], level: f64, seed: u64) -> ConfidenceInterval {
    bootstrap_ci(xs, geomean, level, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_brackets_the_estimate() {
        let xs: Vec<f64> = (1..=40).map(|i| i as f64).collect();
        let ci = mean_ci(&xs, 0.95, 1);
        assert!(ci.low <= ci.estimate && ci.estimate <= ci.high);
        assert!(ci.contains(20.5));
    }

    #[test]
    fn deterministic_given_seed() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let a = mean_ci(&xs, 0.9, 42);
        let b = mean_ci(&xs, 0.9, 42);
        assert_eq!(a, b);
        let c = mean_ci(&xs, 0.9, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn tighter_level_gives_narrower_interval() {
        let xs: Vec<f64> = (0..60).map(|i| (i % 13) as f64).collect();
        let wide = mean_ci(&xs, 0.99, 5);
        let narrow = mean_ci(&xs, 0.5, 5);
        assert!(narrow.half_width() < wide.half_width());
    }

    #[test]
    fn constant_sample_collapses() {
        let xs = [7.0; 20];
        let ci = geomean_ci(&xs, 0.95, 0);
        // log/exp round-tripping leaves the geomean a few ulps off 7.0.
        assert!((ci.low - 7.0).abs() < 1e-12, "{}", ci.low);
        assert!((ci.high - 7.0).abs() < 1e-12, "{}", ci.high);
        assert!(ci.half_width() < 1e-12);
    }

    #[test]
    fn draw_index_equals_the_modulo_form() {
        // Zero and the largest draw below 1 bracket every product; the
        // last lengths are not exact in `f64`.
        let top = 1.0 - f64::EPSILON / 2.0;
        for n in [1usize, 2, 3, 7, 40, 1_000, 99_991, 1 << 40, (1 << 53) + 3] {
            let mut rng = UnitStream::new(n as u64);
            let draws = (0..100_000).map(|_| rng.next_f64());
            for u in draws.chain([0.0, top]) {
                let want = (u * n as f64) as usize % n;
                assert_eq!(draw_index(u, n), want, "u = {u:e}, n = {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_sample_panics() {
        let _ = mean_ci(&[], 0.95, 0);
    }

    #[test]
    #[should_panic(expected = "confidence level")]
    fn bad_level_panics() {
        let _ = mean_ci(&[1.0], 1.5, 0);
    }
}
