use pka_stats::{OnlineStats, WelfordColumns};

/// Streaming z-score normalisation: one Welford accumulator per feature.
///
/// The batch pipeline fits its scaler over the full record matrix; a stream
/// cannot. Instead the normalizer observes every record once (a single
/// `O(d)` update) and normalises with the statistics accumulated *so far*.
/// During the detailed prefix this converges to exactly the batch scaler's
/// view of the prefix; over the tail it keeps adapting, which is what lets
/// the mini-batch centroid updates stay comparable across a drifting
/// stream.
///
/// Internally the accumulators live in a column-oriented
/// [`WelfordColumns`] bank so the per-record fold and z-score run as one
/// pass per record — bitwise identical to pushing each dimension through
/// its own [`OnlineStats`], which is still the serialisation format:
/// [`stats`](StreamingNormalizer::stats) /
/// [`from_stats`](StreamingNormalizer::from_stats) round-trip checkpoints
/// bit-exactly via [`OnlineStats::m2`] / [`OnlineStats::from_raw`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingNormalizer {
    columns: WelfordColumns,
}

impl StreamingNormalizer {
    /// Creates a normalizer for `dims`-dimensional feature vectors.
    pub fn new(dims: usize) -> Self {
        Self {
            columns: WelfordColumns::new(dims),
        }
    }

    /// Rebuilds a normalizer from serialised per-feature accumulators.
    pub fn from_stats(stats: Vec<OnlineStats>) -> Self {
        Self {
            columns: WelfordColumns::from_stats(&stats),
        }
    }

    /// Number of feature dimensions.
    pub fn dims(&self) -> usize {
        self.columns.dims()
    }

    /// Records observed so far.
    pub fn count(&self) -> u64 {
        self.columns.count()
    }

    /// Per-feature accumulators, for checkpoint serialisation; bit-exact.
    pub fn stats(&self) -> Vec<OnlineStats> {
        self.columns.to_stats()
    }

    /// Folds one feature vector into the running statistics.
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong dimensionality.
    pub fn observe(&mut self, features: &[f64]) {
        assert_eq!(features.len(), self.dims(), "feature dimensionality");
        self.columns.fold(features);
    }

    /// Z-scores `features` in place against the statistics accumulated so
    /// far. Features with (near-)zero variance are centred only, matching
    /// the batch scaler's degenerate-column rule.
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong dimensionality.
    pub fn normalize(&self, features: &mut [f64]) {
        assert_eq!(features.len(), self.dims(), "feature dimensionality");
        self.columns.zscore(features);
    }

    /// [`observe`](Self::observe) then [`normalize`](Self::normalize) in
    /// one call — the per-record tail update.
    pub fn observe_and_normalize(&mut self, features: &mut [f64]) {
        self.observe(features);
        self.normalize(features);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zscores_match_two_pass_after_observing_all() {
        let rows = [[1.0, 100.0], [2.0, 200.0], [3.0, 300.0], [4.0, 400.0]];
        let mut n = StreamingNormalizer::new(2);
        for row in &rows {
            n.observe(row);
        }
        let mut x = [3.0, 200.0];
        n.normalize(&mut x);
        // mean = [2.5, 250], pop std = [~1.118, ~111.8]
        assert!((x[0] - 0.5 / (1.25f64).sqrt()).abs() < 1e-12);
        assert!((x[1] + 50.0 / (12500f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn constant_feature_is_centred_not_scaled() {
        let mut n = StreamingNormalizer::new(1);
        for _ in 0..10 {
            n.observe(&[7.0]);
        }
        let mut x = [9.0];
        n.normalize(&mut x);
        assert_eq!(x[0], 2.0);
    }

    #[test]
    fn raw_state_roundtrip_is_exact() {
        let mut n = StreamingNormalizer::new(3);
        for i in 0..57 {
            let f = i as f64;
            n.observe_and_normalize(&mut [f.sin(), f * 0.3, f.sqrt()]);
        }
        let rebuilt = StreamingNormalizer::from_stats(n.stats());
        assert_eq!(rebuilt, n);
        let (mut a, mut b) = ([0.4, -1.0, 3.3], [0.4, -1.0, 3.3]);
        n.normalize(&mut a);
        rebuilt.normalize(&mut b);
        assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
    }

    #[test]
    fn matches_per_dimension_online_stats_bitwise() {
        // The column bank must be indistinguishable from the historical
        // one-OnlineStats-per-feature representation, bit for bit.
        let mut n = StreamingNormalizer::new(2);
        let mut reference = vec![OnlineStats::new(); 2];
        for i in 0..97 {
            let row = [(i as f64 * 0.37).sin() * 50.0, i as f64 - 40.0];
            n.observe(&row);
            for (s, &x) in reference.iter_mut().zip(&row) {
                s.push(x);
            }
        }
        for (got, want) in n.stats().iter().zip(&reference) {
            assert_eq!(got.mean().to_bits(), want.mean().to_bits());
            assert_eq!(got.m2().to_bits(), want.m2().to_bits());
            assert_eq!(got.count(), want.count());
        }
    }
}
