/// Single-pass summary statistics over a stream of `f64` samples.
///
/// Uses Welford's algorithm, so the variance is numerically stable even for
/// long streams with a large mean. Two accumulators can be merged with
/// [`OnlineStats::merge`], which makes the type suitable for parallel
/// reduction.
///
/// # Examples
///
/// ```
/// use pka_stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// s.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_std_dev(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds every sample from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }

    /// Number of samples observed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if no samples have been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the samples, or `0.0` if empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest sample observed, or `+inf` if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample observed, or `-inf` if empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }

    /// Raw second central moment (`Σ (x - mean)²`) — the Welford `M2`
    /// accumulator. Exposed so the accumulator can be serialised and
    /// rebuilt bit-exactly with [`OnlineStats::from_raw`].
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Rebuilds an accumulator from its raw state, the inverse of reading
    /// `count`/`mean`/[`m2`](OnlineStats::m2)/`min`/`max`. Feeding back
    /// unmodified values reproduces the original accumulator exactly,
    /// which is what checkpoint/resume relies on.
    pub fn from_raw(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        Self {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Population variance (divides by `n`), or `0.0` with fewer than one
    /// sample.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n - 1`), or `0.0` with fewer than two
    /// samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Coefficient of variation (population std-dev divided by mean), or
    /// `0.0` if the mean is zero.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.population_std_dev() / self.mean.abs()
        }
    }

    /// Merges another accumulator into this one, as if every sample pushed
    /// into `other` had been pushed into `self`.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Degenerate-variance threshold of [`WelfordColumns::zscore`]: dimensions
/// whose running population std-dev is at or below this are centred but
/// not scaled.
const ZSCORE_STD_FLOOR: f64 = 1e-12;

/// A column-oriented bank of Welford accumulators sharing one sample count.
///
/// This is [`OnlineStats`] × `dims` in structure-of-arrays layout: one
/// `count`, and contiguous `mean`/`m2`/`min`/`max` vectors, so the
/// streaming normalizer folds a whole feature vector in one pass instead of
/// `dims` independent struct updates — while staying bitwise identical to
/// pushing each dimension through its own [`OnlineStats`], which
/// [`to_stats`](WelfordColumns::to_stats)/[`from_stats`](WelfordColumns::from_stats)
/// round-trip exactly (checkpoints serialise the per-dimension form).
#[derive(Debug, Clone, PartialEq)]
pub struct WelfordColumns {
    count: u64,
    mean: Vec<f64>,
    m2: Vec<f64>,
    min: Vec<f64>,
    max: Vec<f64>,
}

impl WelfordColumns {
    /// An empty bank over `dims` feature dimensions.
    pub fn new(dims: usize) -> Self {
        Self {
            count: 0,
            mean: vec![0.0; dims],
            m2: vec![0.0; dims],
            min: vec![f64::INFINITY; dims],
            max: vec![f64::NEG_INFINITY; dims],
        }
    }

    /// Number of feature dimensions.
    pub fn dims(&self) -> usize {
        self.mean.len()
    }

    /// Samples folded so far (shared by every dimension).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds one sample vector into every dimension's accumulator: one
    /// [`OnlineStats::push`] step per dimension, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `xs` has the wrong dimensionality.
    pub fn fold(&mut self, xs: &[f64]) {
        assert_eq!(xs.len(), self.mean.len(), "feature dimensionality");
        self.count += 1;
        let n = self.count as f64;
        let columns = self
            .mean
            .iter_mut()
            .zip(&mut self.m2)
            .zip(&mut self.min)
            .zip(&mut self.max);
        for (&x, (((mean, m2), min), max)) in xs.iter().zip(columns) {
            let delta = x - *mean;
            *mean += delta / n;
            *m2 += delta * (x - *mean);
            *min = min.min(x);
            *max = max.max(x);
        }
    }

    /// Z-scores `xs` in place against the statistics accumulated so far.
    ///
    /// A dimension is divided by its population std-dev only when that
    /// std-dev exceeds `1e-12`; otherwise it is centred only, the batch
    /// scaler's degenerate-column rule. With no samples the std-dev is NaN,
    /// the comparison fails, and the dimension is centred by a mean of
    /// `0.0`, i.e. passes through unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `xs` has the wrong dimensionality.
    pub fn zscore(&self, xs: &mut [f64]) {
        assert_eq!(xs.len(), self.mean.len(), "feature dimensionality");
        let n = self.count as f64;
        for ((x, &mean), &m2) in xs.iter_mut().zip(&self.mean).zip(&self.m2) {
            let std = (m2 / n).sqrt();
            *x -= mean;
            if std > ZSCORE_STD_FLOOR {
                *x /= std;
            }
        }
    }

    /// The per-dimension accumulators in serialisable form; bit-exact.
    pub fn to_stats(&self) -> Vec<OnlineStats> {
        (0..self.mean.len())
            .map(|j| {
                OnlineStats::from_raw(
                    self.count,
                    self.mean[j],
                    self.m2[j],
                    self.min[j],
                    self.max[j],
                )
            })
            .collect()
    }

    /// Rebuilds the bank from serialised per-dimension accumulators;
    /// inverse of [`to_stats`](WelfordColumns::to_stats), bit-exact.
    ///
    /// All accumulators must share one count (they always do when produced
    /// by this type or by folding the same records through per-dimension
    /// [`OnlineStats`]); the shared count is taken from the first, or 0
    /// when `stats` is empty.
    pub fn from_stats(stats: &[OnlineStats]) -> Self {
        Self {
            count: stats.first().map_or(0, OnlineStats::count),
            mean: stats.iter().map(OnlineStats::mean).collect(),
            m2: stats.iter().map(OnlineStats::m2).collect(),
            min: stats.iter().map(OnlineStats::min).collect(),
            max: stats.iter().map(OnlineStats::max).collect(),
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        OnlineStats::extend(self, iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn empty_is_sane() {
        let s = OnlineStats::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn single_sample() {
        let mut s = OnlineStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn matches_two_pass_computation() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 100.0 + 5.0)
            .collect();
        let s: OnlineStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        close(s.mean(), mean);
        close(s.population_variance(), var);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| i as f64 * 1.5 - 200.0).collect();
        let (a, b) = xs.split_at(137);
        let mut left: OnlineStats = a.iter().copied().collect();
        let right: OnlineStats = b.iter().copied().collect();
        left.merge(&right);
        let full: OnlineStats = xs.iter().copied().collect();
        close(left.mean(), full.mean());
        close(left.population_variance(), full.population_variance());
        assert_eq!(left.count(), full.count());
        assert_eq!(left.min(), full.min());
        assert_eq!(left.max(), full.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);

        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn coefficient_of_variation() {
        let s: OnlineStats = [10.0, 10.0, 10.0].into_iter().collect();
        assert_eq!(s.coefficient_of_variation(), 0.0);
        let s: OnlineStats = [5.0, 15.0].into_iter().collect();
        close(s.coefficient_of_variation(), 0.5);
    }

    #[test]
    fn raw_roundtrip_is_bit_exact() {
        let s: OnlineStats = (0..97).map(|i| (i as f64 * 0.71).cos() * 3.0).collect();
        let rebuilt = OnlineStats::from_raw(s.count(), s.mean(), s.m2(), s.min(), s.max());
        assert_eq!(rebuilt, s);
        assert_eq!(rebuilt.mean().to_bits(), s.mean().to_bits());
        assert_eq!(rebuilt.m2().to_bits(), s.m2().to_bits());
    }

    #[test]
    fn columns_fold_matches_per_dimension_push_bitwise() {
        // Specials (NaN, ±inf, signed zero, denormals) alongside ordinary
        // values; the bank must equal one `OnlineStats` per dimension to
        // the bit, min/max included.
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            5e-324,
            1e-308,
            f64::MAX,
        ];
        for dims in [0usize, 1, 2, 3, 5, 8, 17] {
            let mut bank = WelfordColumns::new(dims);
            let mut reference = vec![OnlineStats::new(); dims];
            for t in 0..29usize {
                let row: Vec<f64> = (0..dims)
                    .map(|j| match (t * 7 + j * 3) % 11 {
                        r @ 0..=6 if t % 4 == 3 => specials[r],
                        _ => ((t * 13 + j) as f64 * 0.37).sin() * 100.0,
                    })
                    .collect();
                bank.fold(&row);
                for (s, &x) in reference.iter_mut().zip(&row) {
                    s.push(x);
                }
            }
            // NaN sign and payload are not part of IEEE 754's contract,
            // so every NaN compares alike; everything else to the bit.
            let canon = |x: f64| {
                if x.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    x.to_bits()
                }
            };
            let bits = |s: &OnlineStats| [s.mean(), s.m2(), s.min(), s.max()].map(canon);
            assert_eq!(bank.count(), 29);
            for (got, want) in bank.to_stats().iter().zip(&reference) {
                assert_eq!(got.count(), want.count(), "dims={dims}");
                assert_eq!(bits(got), bits(want), "dims={dims}");
            }
        }
    }

    #[test]
    fn zscore_scales_centres_degenerate_and_passes_empty_through() {
        let probe = [0.5, -3.0, 1.0, 2.0];
        // No samples: std is NaN, so every dimension is centred by 0.
        let mut x = probe;
        WelfordColumns::new(4).zscore(&mut x);
        assert_eq!(x.map(f64::to_bits), probe.map(f64::to_bits));

        // Column 0 varies (std 1), column 1 is constant (centred only),
        // column 2 varies below the floor (centred only), column 3 has a
        // NaN sample (NaN std fails the floor test: centred by NaN).
        let mut bank = WelfordColumns::new(4);
        bank.fold(&[1.0, 7.0, 1.0, f64::NAN]);
        bank.fold(&[3.0, 7.0, 1.0 + 1e-13, 2.0]);
        let mut x = probe;
        bank.zscore(&mut x);
        let mean = bank
            .to_stats()
            .iter()
            .map(OnlineStats::mean)
            .collect::<Vec<_>>();
        assert_eq!(x[0], (0.5 - 2.0) / 1.0);
        assert_eq!(x[1], -3.0 - 7.0);
        assert_eq!(x[2].to_bits(), (1.0 - mean[2]).to_bits());
        assert!(x[3].is_nan());
    }

    #[test]
    fn numerically_stable_with_large_offset() {
        // Same data shifted by 1e9: variance must not explode.
        let base = [4.0, 7.0, 13.0, 16.0];
        let s1: OnlineStats = base.iter().copied().collect();
        let s2: OnlineStats = base.iter().map(|x| x + 1e9).collect();
        close(s1.population_variance(), s2.population_variance());
    }
}
