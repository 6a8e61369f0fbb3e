use std::collections::VecDeque;

/// Rolling mean and standard deviation over the last `window` samples.
///
/// This is the primitive behind *Principal Kernel Projection*'s IPC-stability
/// detector (Section 3.2 of the paper): during simulation the instantaneous
/// IPC is pushed once per sampling interval, and the kernel is declared
/// quasi-stable once the windowed standard deviation falls below the
/// user-selected threshold `s`.
///
/// The implementation keeps the window in a ring buffer and recomputes the
/// moments exactly (two-pass) on demand. PKP windows are tiny — the default
/// 3000-cycle window at a 200-cycle sampling interval holds 15 samples — so
/// the O(window) query cost is negligible, and unlike running-moment
/// schemes the result is immune to catastrophic cancellation no matter how
/// far the stream level sits from zero.
///
/// # Examples
///
/// ```
/// use pka_stats::RollingStats;
///
/// let mut r = RollingStats::new(3);
/// for x in [10.0, 10.0, 10.0, 10.0] {
///     r.push(x);
/// }
/// assert!(r.is_full());
/// assert_eq!(r.std_dev(), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct RollingStats {
    window: usize,
    buf: VecDeque<f64>,
}

impl RollingStats {
    /// Creates a rolling accumulator over the last `window` samples.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "rolling window must be non-empty");
        Self {
            window,
            buf: VecDeque::with_capacity(window),
        }
    }

    /// The configured window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if no samples have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Returns `true` once the window holds `window` samples.
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.window
    }

    /// Pushes a sample, evicting the oldest one if the window is full.
    pub fn push(&mut self, x: f64) {
        if self.buf.len() == self.window {
            self.buf.pop_front();
        }
        self.buf.push_back(x);
    }

    /// Clears the window.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Mean of the samples currently in the window, or `0.0` if empty.
    pub fn mean(&self) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            self.buf.iter().sum::<f64>() / self.buf.len() as f64
        }
    }

    /// Population variance of the window contents, or `0.0` if empty.
    ///
    /// Computed with the two-pass formula around the window mean, so the
    /// result is exact up to rounding even when the samples share a huge
    /// common offset (the `E[x²] − E[x]²` form loses all precision there).
    pub fn variance(&self) -> f64 {
        let n = self.buf.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self.mean();
        self.buf
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / n as f64
    }

    /// Population standard deviation of the window contents.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard deviation normalised by the mean (coefficient of variation),
    /// or `f64::INFINITY` when the mean is zero but samples vary.
    ///
    /// PKP's threshold `s` is interpreted against this quantity so a single
    /// setting works for kernels with very different absolute IPC.
    pub fn relative_std_dev(&self) -> f64 {
        let mean = self.mean();
        let sd = self.std_dev();
        if mean.abs() < f64::EPSILON {
            if sd == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            sd / mean.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_window_panics() {
        let _ = RollingStats::new(0);
    }

    #[test]
    fn partial_window() {
        let mut r = RollingStats::new(10);
        r.push(2.0);
        r.push(4.0);
        assert!(!r.is_full());
        assert_eq!(r.len(), 2);
        close(r.mean(), 3.0);
        close(r.std_dev(), 1.0);
    }

    #[test]
    fn eviction_matches_naive_window() {
        let xs: Vec<f64> = (0..200).map(|i| ((i * 37) % 17) as f64 - 5.0).collect();
        let w = 16;
        let mut r = RollingStats::new(w);
        for (i, &x) in xs.iter().enumerate() {
            r.push(x);
            let lo = (i + 1).saturating_sub(w);
            let win = &xs[lo..=i];
            let mean = win.iter().sum::<f64>() / win.len() as f64;
            let var = win.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / win.len() as f64;
            close(r.mean(), mean);
            close(r.variance(), var);
        }
    }

    #[test]
    fn constant_stream_has_zero_relative_std() {
        let mut r = RollingStats::new(5);
        for _ in 0..20 {
            r.push(7.5);
        }
        assert_eq!(r.std_dev(), 0.0);
        assert_eq!(r.relative_std_dev(), 0.0);
    }

    #[test]
    fn zero_mean_varying_stream_is_infinite_relative_std() {
        let mut r = RollingStats::new(2);
        r.push(-1.0);
        r.push(1.0);
        assert_eq!(r.relative_std_dev(), f64::INFINITY);
    }

    #[test]
    fn clear_resets() {
        let mut r = RollingStats::new(3);
        r.push(1.0);
        r.push(2.0);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.std_dev(), 0.0);
    }

    #[test]
    fn large_offset_window_of_zeros_has_exact_zero_variance() {
        // Regression distilled from a recorded proptest failure: after a
        // sample near ±1e6, a window of all zeros must report variance 0.
        // The old running-moment implementation (offset pinned to the first
        // sample) returned ~1e-4 here from catastrophic cancellation.
        let xs = [
            -730657.6364706054,
            0.0,
            915433.2212871738,
            0.0,
            0.0,
            0.0,
            -626979.5805953905,
            778214.712507199,
            0.0,
            0.0,
            0.0,
            0.0,
            474379.78679268557,
            695958.2280195466,
            0.0,
            0.0,
            0.0,
            343666.67055749206,
            0.0,
            -234067.1792150805,
            731542.2273515295,
            591461.0736243472,
            0.0,
            249306.42625210717,
            -350872.2229947506,
        ];
        let w = 5;
        let mut r = RollingStats::new(w);
        for (i, &x) in xs.iter().enumerate() {
            r.push(x);
            let lo = (i + 1).saturating_sub(w);
            let win = &xs[lo..=i];
            let mean = win.iter().sum::<f64>() / win.len() as f64;
            let var = win.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / win.len() as f64;
            let var_scale = var.abs().max(1.0);
            assert!(
                (r.variance() - var).abs() / var_scale < 1e-6,
                "variance {} vs {} at i={i}",
                r.variance(),
                var
            );
        }
        // Once the huge first sample has been evicted and the window holds
        // only zeros, the variance must be *exactly* zero — the old
        // implementation kept the first sample as its offset forever and
        // reported ~1e-4 here.
        let mut z = RollingStats::new(w);
        z.push(-730657.6364706054);
        for _ in 0..w {
            z.push(0.0);
        }
        assert_eq!(z.variance(), 0.0);
        assert_eq!(z.relative_std_dev(), 0.0);
    }

    #[test]
    fn long_stream_does_not_drift() {
        // Push far more samples than REBUILD_PERIOD with an awkward offset
        // and confirm the windowed stats still match a naive recomputation.
        let mut r = RollingStats::new(8);
        let f = |i: u64| 1e7 + ((i * 2654435761) % 1000) as f64 / 10.0;
        let n = 70_000u64;
        for i in 0..n {
            r.push(f(i));
        }
        let win: Vec<f64> = (n - 8..n).map(f).collect();
        let mean = win.iter().sum::<f64>() / 8.0;
        let var = win.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / 8.0;
        assert!((r.mean() - mean).abs() < 1e-6);
        assert!((r.variance() - var).abs() < 1e-3);
    }
}
