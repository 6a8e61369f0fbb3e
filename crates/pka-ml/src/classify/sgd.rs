use pka_stats::hash::UnitStream;

use super::Classifier;
use crate::{Matrix, MlError, StandardScaler};

/// Multinomial logistic regression trained by stochastic gradient descent.
///
/// The first of the three classifiers PKA uses to map lightly-profiled
/// kernels onto detailed-profiling groups. Features are standardised
/// internally, and training shuffles with a deterministic stream derived
/// from the seed, so results are reproducible.
///
/// # Examples
///
/// ```
/// use pka_ml::classify::{Classifier, SgdClassifier};
/// use pka_ml::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![0.5], vec![10.0], vec![10.5]])?;
/// let model = SgdClassifier::fit(&x, &[0, 0, 1, 1], 42)?;
/// assert_eq!(model.predict(&[0.2])?, 0);
/// assert_eq!(model.predict(&[10.2])?, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SgdClassifier {
    scaler: StandardScaler,
    classes: Vec<usize>,
    /// `weights[c]` has one weight per feature plus a trailing bias.
    weights: Vec<Vec<f64>>,
}

const EPOCHS: usize = 60;
const LEARNING_RATE: f64 = 0.05;
const L2: f64 = 1e-4;

impl SgdClassifier {
    /// Trains on rows of `x` with class labels `y`.
    ///
    /// # Errors
    ///
    /// * [`MlError::EmptyInput`] if `x` has no rows.
    /// * [`MlError::DimensionMismatch`] if `y.len() != x.rows()`.
    pub fn fit(x: &Matrix, y: &[usize], seed: u64) -> Result<Self, MlError> {
        if x.rows() == 0 || x.cols() == 0 {
            return Err(MlError::EmptyInput);
        }
        if y.len() != x.rows() {
            return Err(MlError::DimensionMismatch {
                expected: x.rows(),
                actual: y.len(),
            });
        }
        let (scaler, xs) = StandardScaler::fit_transform(x)?;

        let mut classes: Vec<usize> = y.to_vec();
        classes.sort_unstable();
        classes.dedup();
        let class_index = |label: usize| classes.iter().position(|&c| c == label).expect("seen");

        let d = x.cols();
        let mut weights = vec![vec![0.0; d + 1]; classes.len()];
        let mut order: Vec<usize> = (0..x.rows()).collect();
        let mut rng = UnitStream::new(seed ^ 0x5851_f42d_4c95_7f2d);
        // Per-sample score scratch, hoisted out of the epoch loop; the
        // arithmetic is identical to `softmax_scores`, only the allocations
        // are amortised, so the fitted weights are bit-identical.
        let mut probs = vec![0.0; classes.len()];

        for epoch in 0..EPOCHS {
            // Fisher–Yates shuffle.
            for i in (1..order.len()).rev() {
                let j = (rng.next_f64() * (i + 1) as f64) as usize;
                order.swap(i, j);
            }
            let lr = LEARNING_RATE / (1.0 + epoch as f64 * 0.05);
            for &i in &order {
                let row = xs.row(i);
                softmax_scores_into(&weights, row, &mut probs);
                let target = class_index(y[i]);
                for (c, w) in weights.iter_mut().enumerate() {
                    let grad = probs[c] - if c == target { 1.0 } else { 0.0 };
                    for (wj, &xj) in w[..d].iter_mut().zip(row) {
                        *wj -= lr * (grad * xj + L2 * *wj);
                    }
                    w[d] -= lr * grad;
                }
            }
        }

        Ok(Self {
            scaler,
            classes,
            weights,
        })
    }

    /// The distinct class labels seen at fit time, ascending.
    pub fn classes(&self) -> &[usize] {
        &self.classes
    }
}

fn softmax_scores(weights: &[Vec<f64>], row: &[f64]) -> Vec<f64> {
    let mut probs = vec![0.0; weights.len()];
    softmax_scores_into(weights, row, &mut probs);
    probs
}

/// Writes per-class softmax probabilities into `probs`: logits in class
/// order, a shared max subtracted for stability, exponentials normalised in
/// place. Every operation matches the original allocating formulation
/// term-for-term, so scores (and therefore argmax decisions) are
/// bit-identical.
fn softmax_scores_into(weights: &[Vec<f64>], row: &[f64], probs: &mut [f64]) {
    let d = row.len();
    for (p, w) in probs.iter_mut().zip(weights) {
        *p = w[..d].iter().zip(row).map(|(a, b)| a * b).sum::<f64>() + w[d];
    }
    let max = probs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for p in probs.iter_mut() {
        *p = (*p - max).exp();
    }
    let sum: f64 = probs.iter().sum();
    for p in probs.iter_mut() {
        *p /= sum;
    }
}

/// Index of the maximum score, matching `Iterator::max_by` over
/// `partial_cmp` (ties resolve to the last maximal index).
fn argmax(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("scores are finite"))
        .map(|(i, _)| i)
        .expect("at least one class")
}

impl Classifier for SgdClassifier {
    fn predict(&self, sample: &[f64]) -> Result<usize, MlError> {
        let scaled = self.scaler.transform_row(sample)?;
        let probs = softmax_scores(&self.weights, &scaled);
        Ok(self.classes[argmax(&probs)])
    }

    fn predict_into(&self, samples: &[f64], d: usize, out: &mut Vec<usize>) -> Result<(), MlError> {
        crate::classify::check_batch(samples, d)?;
        let mut scaled = vec![0.0; self.scaler.means().len()];
        let mut probs = vec![0.0; self.weights.len()];
        out.clear();
        out.reserve(samples.len() / d);
        for row in samples.chunks_exact(d) {
            self.scaler.transform_row_into(row, &mut scaled)?;
            softmax_scores_into(&self.weights, &scaled, &mut probs);
            out.push(self.classes[argmax(&probs)]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::accuracy;

    fn three_blob_data() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..15 {
            let j = i as f64 * 0.05;
            rows.push(vec![0.0 + j, 0.0]);
            labels.push(0);
            rows.push(vec![10.0, 10.0 + j]);
            labels.push(5);
            rows.push(vec![-10.0 - j, 10.0]);
            labels.push(9);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn separable_data_fits_perfectly() {
        let (x, y) = three_blob_data();
        let model = SgdClassifier::fit(&x, &y, 1).unwrap();
        let pred = model.predict_all(&x).unwrap();
        assert_eq!(accuracy(&pred, &y), 1.0);
    }

    #[test]
    fn preserves_arbitrary_label_values() {
        let (x, y) = three_blob_data();
        let model = SgdClassifier::fit(&x, &y, 1).unwrap();
        assert_eq!(model.classes(), &[0, 5, 9]);
        assert_eq!(model.predict(&[10.0, 10.2]).unwrap(), 5);
    }

    #[test]
    fn single_class_degenerates_gracefully() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let model = SgdClassifier::fit(&x, &[3, 3], 0).unwrap();
        assert_eq!(model.predict(&[100.0]).unwrap(), 3);
    }

    #[test]
    fn label_length_mismatch_rejected() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        assert!(matches!(
            SgdClassifier::fit(&x, &[0], 0),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = three_blob_data();
        let a = SgdClassifier::fit(&x, &y, 7).unwrap();
        let b = SgdClassifier::fit(&x, &y, 7).unwrap();
        let probe = vec![3.0, 4.0];
        assert_eq!(a.predict(&probe).unwrap(), b.predict(&probe).unwrap());
    }

    #[test]
    fn wrong_dimension_rejected_at_predict() {
        let (x, y) = three_blob_data();
        let model = SgdClassifier::fit(&x, &y, 1).unwrap();
        assert!(matches!(
            model.predict(&[1.0]),
            Err(MlError::DimensionMismatch { .. })
        ));
    }
}
