//! Classifiers for PKA's two-level profiling mapping.
//!
//! When detailed profiling is intractable, PKA profiles the first *j* kernels
//! in detail, clusters them, and then labels the remaining lightly-profiled
//! kernels with one of three classifiers — stochastic gradient descent,
//! Gaussian naive Bayes, or a multilayer perceptron (Section 3.1 of the
//! paper). The [`Ensemble`] combines them by majority vote, which is how the
//! reference tooling resolves disagreements.

mod gnb;
mod mlp;
mod sgd;

pub use gnb::GaussianNb;
pub use mlp::MlpClassifier;
pub use sgd::SgdClassifier;

use crate::{Matrix, MlError};

/// A fitted multi-class classifier over dense feature vectors.
///
/// Implementations are produced by each model's `fit` constructor; labels are
/// arbitrary `usize` class ids (PKA uses the PKS group index).
pub trait Classifier {
    /// Predicts the class of one sample.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if the sample has the wrong
    /// number of features.
    fn predict(&self, sample: &[f64]) -> Result<usize, MlError>;

    /// Predicts a class per row.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if the matrix has the wrong
    /// number of columns.
    fn predict_all(&self, samples: &Matrix) -> Result<Vec<usize>, MlError> {
        samples.iter_rows().map(|r| self.predict(r)).collect()
    }

    /// Predicts a class per row of a flat row-major batch, appending to
    /// `out` — the high-throughput twin of [`predict`](Self::predict).
    ///
    /// `samples` holds `samples.len() / d` rows of `d` features each.
    /// Implementations must label each row exactly as `predict` would
    /// (bit-identical score arithmetic); the default implementation simply
    /// delegates row by row. Optimised overrides reuse scratch buffers so
    /// the per-row cost is allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if `d` is zero, if
    /// `samples.len()` is not a multiple of `d`, or if `d` does not match
    /// the fitted feature count.
    fn predict_into(
        &self,
        samples: &[f64],
        d: usize,
        out: &mut Vec<usize>,
    ) -> Result<(), MlError> {
        check_batch(samples, d)?;
        out.clear();
        out.reserve(samples.len() / d);
        for row in samples.chunks_exact(d) {
            out.push(self.predict(row)?);
        }
        Ok(())
    }
}

/// Validates the shape of a flat row-major batch.
pub(crate) fn check_batch(samples: &[f64], d: usize) -> Result<(), MlError> {
    if d == 0 || samples.len() % d != 0 {
        return Err(MlError::DimensionMismatch {
            expected: d.max(1),
            actual: samples.len(),
        });
    }
    Ok(())
}

/// Fraction of samples whose prediction matches the reference label.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use pka_ml::classify::accuracy;
///
/// assert_eq!(accuracy(&[0, 1, 1], &[0, 1, 0]), 2.0 / 3.0);
/// ```
pub fn accuracy(predicted: &[usize], reference: &[usize]) -> f64 {
    assert_eq!(
        predicted.len(),
        reference.len(),
        "accuracy requires equal-length slices"
    );
    if predicted.is_empty() {
        return 0.0;
    }
    let hits = predicted
        .iter()
        .zip(reference)
        .filter(|(p, r)| p == r)
        .count();
    hits as f64 / predicted.len() as f64
}

/// Majority-vote ensemble over boxed classifiers.
///
/// Ties are broken toward the first classifier's vote, which makes the
/// ensemble deterministic and gives the (cheap, robust) SGD model priority in
/// the default PKA configuration.
///
/// # Examples
///
/// ```
/// use pka_ml::classify::{Classifier, Ensemble, GaussianNb, SgdClassifier};
/// use pka_ml::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![5.0], vec![5.1]])?;
/// let y = [0, 0, 1, 1];
/// let ensemble = Ensemble::new(vec![
///     Box::new(SgdClassifier::fit(&x, &y, 0)?),
///     Box::new(GaussianNb::fit(&x, &y)?),
/// ]);
/// assert_eq!(ensemble.predict(&[4.9])?, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Ensemble {
    members: Vec<Box<dyn Classifier + Send + Sync>>,
}

impl std::fmt::Debug for Ensemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ensemble")
            .field("members", &self.members.len())
            .finish()
    }
}

impl Ensemble {
    /// Builds an ensemble from fitted classifiers.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(members: Vec<Box<dyn Classifier + Send + Sync>>) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        Self { members }
    }

    /// Number of member classifiers.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the ensemble has no members (never, by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member classifiers, in vote order.
    pub fn members(&self) -> &[Box<dyn Classifier + Send + Sync>] {
        &self.members
    }
}

impl Classifier for Ensemble {
    fn predict(&self, sample: &[f64]) -> Result<usize, MlError> {
        let votes: Vec<usize> = self
            .members
            .iter()
            .map(|m| m.predict(sample))
            .collect::<Result<_, _>>()?;
        let mut counts: Vec<(usize, usize)> = Vec::new();
        for &v in &votes {
            match counts.iter_mut().find(|(label, _)| *label == v) {
                Some((_, c)) => *c += 1,
                None => counts.push((v, 1)),
            }
        }
        let max = counts.iter().map(|&(_, c)| c).max().expect("non-empty");
        // Tie-break toward the earliest vote that achieved the max count.
        Ok(votes
            .iter()
            .copied()
            .find(|v| counts.iter().any(|&(l, c)| l == *v && c == max))
            .expect("non-empty"))
    }

    /// Batched majority vote with a lazy middle member.
    ///
    /// For the canonical three-member ensemble the majority is decided by
    /// the first and third members whenever they agree: the middle vote can
    /// neither overturn a 2-of-3 majority nor win the all-distinct
    /// tie-break (which goes to the first member). The middle member is
    /// therefore only consulted on rows where the outer two disagree, where
    /// the vote algebra reduces to: side with the middle member iff it
    /// matches the third. Labels are identical to [`predict`](Self::predict)
    /// on every row; members skipped by the short-circuit are not asked to
    /// validate the row (all members share the fitted dimensionality, so
    /// shape errors are still caught by the members that do run).
    fn predict_into(
        &self,
        samples: &[f64],
        d: usize,
        out: &mut Vec<usize>,
    ) -> Result<(), MlError> {
        check_batch(samples, d)?;
        if self.members.len() != 3 {
            out.clear();
            out.reserve(samples.len() / d);
            for row in samples.chunks_exact(d) {
                out.push(self.predict(row)?);
            }
            return Ok(());
        }
        let mut first = Vec::new();
        let mut third = Vec::new();
        self.members[0].predict_into(samples, d, &mut first)?;
        self.members[2].predict_into(samples, d, &mut third)?;
        out.clear();
        out.reserve(first.len());
        for (i, (&a, &c)) in first.iter().zip(&third).enumerate() {
            if a == c {
                out.push(a);
            } else {
                let b = self.members[1].predict(&samples[i * d..(i + 1) * d])?;
                out.push(if b == c { b } else { a });
            }
        }
        Ok(())
    }
}

/// log2 of the slots in an [`EnsembleMemo`]'s direct-mapped table (1024).
/// Kernel streams are template-heavy (few distinct launch shapes), so a
/// small table absorbs almost every ensemble call.
const MEMO_SLOT_BITS: u32 = 10;

/// FNV-1a over the raw feature bit patterns, and the slot it maps to.
///
/// The slot is the hash's top bits. A multiply only carries bits upward,
/// so the low bits see only the low bits of each feature; features that
/// are small integers (the name buckets) differ only in their high bits,
/// and launches that differ only by name would share a low-bit slot and
/// evict each other on every launch.
fn memo_key(row: &[f64]) -> (u64, usize) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in row {
        h ^= x.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h, (h >> (64 - MEMO_SLOT_BITS)) as usize)
}

/// An exact memo in front of an [`Ensemble`]: the tail classifier of the
/// two-level pipeline and the stream engine.
///
/// A direct-mapped table keyed on the raw feature bits remembers the label
/// of each row it has classified. A lookup compares the full row, not just
/// the hash, so a colliding slot can only miss, never mislabel. Misses go
/// to the ensemble in one [`Classifier::predict_into`] batch and then
/// overwrite their slots. The ensemble is a pure function of a row, so the
/// labels equal [`Ensemble::predict`] on every row whatever the table
/// holds.
///
/// # Examples
///
/// ```
/// use pka_ml::classify::{Classifier, Ensemble, EnsembleMemo, GaussianNb, SgdClassifier};
/// use pka_ml::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![5.0], vec![5.1]])?;
/// let y = [0, 0, 1, 1];
/// let ensemble = Ensemble::new(vec![
///     Box::new(SgdClassifier::fit(&x, &y, 0)?),
///     Box::new(GaussianNb::fit(&x, &y)?),
/// ]);
/// let mut memo = EnsembleMemo::new(&ensemble, 1);
/// let mut labels = Vec::new();
/// let hits = memo.predict_into(&[4.9, 0.05, 4.9], &mut labels)?;
/// assert_eq!(labels, vec![1, 0, 1]);
/// assert_eq!(hits, 0, "misses in one batch are labelled together");
/// assert_eq!(memo.predict_into(&[4.9], &mut labels)?, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct EnsembleMemo<'a> {
    ensemble: &'a Ensemble,
    dims: usize,
    keys: Vec<u64>,
    /// `usize::MAX` marks an empty slot.
    labels: Vec<usize>,
    rows: Vec<f64>,
    miss_idx: Vec<usize>,
    miss_flat: Vec<f64>,
    miss_labels: Vec<usize>,
}

impl<'a> EnsembleMemo<'a> {
    /// An empty memo over `ensemble` for rows of `dims` features.
    pub fn new(ensemble: &'a Ensemble, dims: usize) -> Self {
        Self {
            ensemble,
            dims,
            keys: vec![0; 1 << MEMO_SLOT_BITS],
            labels: vec![usize::MAX; 1 << MEMO_SLOT_BITS],
            rows: vec![0.0; (1 << MEMO_SLOT_BITS) * dims],
            miss_idx: Vec::new(),
            miss_flat: Vec::new(),
            miss_labels: Vec::new(),
        }
    }

    /// Labels every row of the flat row-major batch `samples` into `out`
    /// (cleared first) and returns how many rows the table answered.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if `samples` is not a whole
    /// number of rows, and propagates ensemble failures on the misses.
    pub fn predict_into(
        &mut self,
        samples: &[f64],
        out: &mut Vec<usize>,
    ) -> Result<usize, MlError> {
        let d = self.dims;
        check_batch(samples, d)?;
        out.clear();
        self.miss_idx.clear();
        self.miss_flat.clear();
        for (i, row) in samples.chunks_exact(d).enumerate() {
            let (key, slot) = memo_key(row);
            if self.labels[slot] != usize::MAX
                && self.keys[slot] == key
                && self.rows[slot * d..(slot + 1) * d] == *row
            {
                out.push(self.labels[slot]);
            } else {
                out.push(usize::MAX);
                self.miss_idx.push(i);
                self.miss_flat.extend_from_slice(row);
            }
        }
        let misses = self.miss_idx.len();
        if misses > 0 {
            self.ensemble
                .predict_into(&self.miss_flat, d, &mut self.miss_labels)?;
            for ((&i, &label), row) in self
                .miss_idx
                .iter()
                .zip(&self.miss_labels)
                .zip(self.miss_flat.chunks_exact(d))
            {
                out[i] = label;
                let (key, slot) = memo_key(row);
                self.keys[slot] = key;
                self.labels[slot] = label;
                self.rows[slot * d..(slot + 1) * d].copy_from_slice(row);
            }
        }
        Ok(out.len() - misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A classifier that always answers the same class.
    #[derive(Debug)]
    struct Constant(usize);

    impl Classifier for Constant {
        fn predict(&self, _sample: &[f64]) -> Result<usize, MlError> {
            Ok(self.0)
        }
    }

    #[test]
    fn accuracy_empty_is_zero() {
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn accuracy_length_mismatch_panics() {
        let _ = accuracy(&[0], &[0, 1]);
    }

    #[test]
    fn majority_vote_wins() {
        let e = Ensemble::new(vec![
            Box::new(Constant(1)),
            Box::new(Constant(2)),
            Box::new(Constant(2)),
        ]);
        assert_eq!(e.predict(&[0.0]).unwrap(), 2);
    }

    #[test]
    fn tie_breaks_to_first_vote() {
        let e = Ensemble::new(vec![Box::new(Constant(7)), Box::new(Constant(3))]);
        assert_eq!(e.predict(&[0.0]).unwrap(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ensemble_panics() {
        let _ = Ensemble::new(Vec::new());
    }

    /// Labels a row by its first feature.
    #[derive(Debug)]
    struct FirstFeature;

    impl Classifier for FirstFeature {
        fn predict(&self, sample: &[f64]) -> Result<usize, MlError> {
            Ok(sample[0] as usize)
        }
    }

    #[test]
    fn memo_slot_collisions_miss_and_never_mislabel() {
        let a = [1.0, 0.0];
        let slot = memo_key(&a).1;
        let b = (2..)
            .map(|i| [f64::from(i), 0.0])
            .find(|row| memo_key(row).1 == slot)
            .expect("some row shares the slot");
        let e = Ensemble::new(vec![Box::new(FirstFeature)]);
        let mut memo = EnsembleMemo::new(&e, 2);
        let mut out = Vec::new();
        assert_eq!(memo.predict_into(&a, &mut out).unwrap(), 0);
        assert_eq!(memo.predict_into(&a, &mut out).unwrap(), 1, "a is cached");
        assert_eq!(memo.predict_into(&b, &mut out).unwrap(), 0, "b evicts a");
        assert_eq!(out, vec![b[0] as usize]);
        let hits = memo.predict_into(&a, &mut out).unwrap();
        assert_eq!(hits, 0, "a misses again");
        assert_eq!(out, vec![1]);
        assert!(memo.predict_into(&[1.0, 2.0, 3.0], &mut out).is_err());
    }

    #[test]
    fn predict_all_maps_rows() {
        let e = Ensemble::new(vec![Box::new(Constant(4))]);
        let m = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        assert_eq!(e.predict_all(&m).unwrap(), vec![4, 4]);
    }
}
