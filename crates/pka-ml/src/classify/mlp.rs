use pka_stats::hash::UnitStream;

use super::Classifier;
use crate::{Matrix, MlError, StandardScaler};

/// A single-hidden-layer multilayer perceptron classifier.
///
/// The third of PKA's two-level-profiling classifiers. Architecture:
/// `features → hidden (ReLU) → classes (softmax)`, trained with plain
/// mini-batch SGD and cross-entropy loss. Inputs are standardised
/// internally; weight initialisation and shuffling are deterministic given
/// the seed.
///
/// # Examples
///
/// ```
/// use pka_ml::classify::{Classifier, MlpClassifier};
/// use pka_ml::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![0.5], vec![10.0], vec![10.5]])?;
/// let model = MlpClassifier::fit(&x, &[0, 0, 1, 1], 42)?;
/// assert_eq!(model.predict(&[10.1])?, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MlpClassifier {
    scaler: StandardScaler,
    classes: Vec<usize>,
    /// `w1[h]` is the input→hidden weight row for hidden unit `h` (bias last).
    w1: Vec<Vec<f64>>,
    /// `w2[c]` is the hidden→output weight row for class `c` (bias last).
    w2: Vec<Vec<f64>>,
}

const HIDDEN: usize = 16;
const EPOCHS: usize = 120;
const LEARNING_RATE: f64 = 0.02;

impl MlpClassifier {
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
        let k = classes.len();
        let d = x.cols();

        let mut rng = UnitStream::new(seed ^ 0xa076_1d64_78bd_642f);
        // Training keeps the input layer transposed: `w1t[j][h]` is input
        // `j`'s weight into hidden unit `h`, and `w1t[d]` holds the biases.
        // The forward pass runs the 16 hidden units as independent lanes,
        // each sum in the row-wise loop's order (from -0.0, as `Sum for
        // f64` starts, adding inputs in turn), so it vectorises across
        // units. The update still visits only live units, one column each,
        // with the step `(lr * dh) * x`, so a dead unit keeps its weights
        // untouched. The output layer stays row-major (rows of
        // `HIDDEN + 1`, bias last) and is read and updated in one pass.
        // Measured on the synthetic 2,000-row prefix (SSE2 lanes hold two
        // weights, and about 6 of 16 units are live per step): updating
        // all 16 input lanes under a select was ~9% slower than the
        // row-wise loop, and transposing the output layer over the runtime
        // class count ~12% slower. `tests/classifier_pins.rs` pins the
        // fitted bits.
        // He-style initialisation scaled for ReLU; biases start at zero.
        let scale1 = (2.0 / d as f64).sqrt();
        let mut w1t = vec![[0.0; HIDDEN]; d + 1];
        for h in 0..HIDDEN {
            for w in &mut w1t[..d] {
                w[h] = (rng.next_f64() - 0.5) * 2.0 * scale1;
            }
        }
        let scale2 = (2.0 / HIDDEN as f64).sqrt();
        let mut w2 = vec![0.0; k * (HIDDEN + 1)];
        for w in w2.chunks_exact_mut(HIDDEN + 1) {
            for wh in &mut w[..HIDDEN] {
                *wh = (rng.next_f64() - 0.5) * 2.0 * scale2;
            }
        }

        // Each row's class index, looked up once before the epochs.
        let targets: Vec<usize> = y
            .iter()
            .map(|label| classes.binary_search(label).expect("label seen"))
            .collect();
        let mut order: Vec<usize> = (0..xs.rows()).collect();
        // Per-sample forward/backward scratch, hoisted out of the training
        // loop.
        let mut hidden = [0.0; HIDDEN];
        let mut probs = vec![0.0; k];

        for epoch in 0..EPOCHS {
            for i in (1..order.len()).rev() {
                let j = (rng.next_f64() * (i + 1) as f64) as usize;
                order.swap(i, j);
            }
            let lr = LEARNING_RATE / (1.0 + epoch as f64 * 0.01);
            for &i in &order {
                let row = xs.row(i);
                // Forward.
                let mut z = [-0.0; HIDDEN];
                for (w, &xj) in w1t.iter().zip(row) {
                    for (zh, wh) in z.iter_mut().zip(w) {
                        *zh += wh * xj;
                    }
                }
                for ((hz, zh), b) in hidden.iter_mut().zip(z).zip(&w1t[d]) {
                    *hz = (zh + b).max(0.0);
                }
                for (p, w) in probs.iter_mut().zip(w2.chunks_exact(HIDDEN + 1)) {
                    *p = w[..HIDDEN]
                        .iter()
                        .zip(&hidden)
                        .map(|(a, b)| a * b)
                        .sum::<f64>()
                        + w[HIDDEN];
                }
                let max = probs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                for p in probs.iter_mut() {
                    // `x - max` is zero only for the maximum itself, and
                    // `exp(±0)` is exactly 1.
                    let shifted = *p - max;
                    *p = if shifted == 0.0 { 1.0 } else { shifted.exp() };
                }
                let sum: f64 = probs.iter().sum();
                for p in probs.iter_mut() {
                    *p /= sum;
                }

                // Backward. The cross-entropy gradient is `p - onehot`, and
                // `p - 0.0` is `p` exactly, so only the target moves.
                let dlogits = &mut probs;
                dlogits[targets[i]] -= 1.0;
                // One pass per output row: each weight adds to `dhidden`
                // before its own update, so `dhidden` sees the pre-step
                // weights.
                let mut dhidden = [0.0; HIDDEN];
                for (dl, w) in dlogits.iter().zip(w2.chunks_exact_mut(HIDDEN + 1)) {
                    let step = lr * dl;
                    for ((dh, wh), hz) in dhidden.iter_mut().zip(&mut w[..HIDDEN]).zip(&hidden) {
                        *dh += dl * *wh;
                        *wh -= step * hz;
                    }
                    w[HIDDEN] -= step;
                }
                for (h, (&dh, &hz)) in dhidden.iter().zip(&hidden).enumerate() {
                    if hz > 0.0 {
                        let step = lr * dh;
                        for (w, &xj) in w1t.iter_mut().zip(row) {
                            w[h] -= step * xj;
                        }
                        w1t[d][h] -= step;
                    }
                }
            }
        }

        Ok(Self {
            scaler,
            classes,
            w1: (0..HIDDEN)
                .map(|h| w1t.iter().map(|w| w[h]).collect())
                .collect(),
            w2: w2.chunks_exact(HIDDEN + 1).map(<[f64]>::to_vec).collect(),
        })
    }

    /// The distinct class labels seen at fit time, ascending.
    pub fn classes(&self) -> &[usize] {
        &self.classes
    }
}

impl Classifier for MlpClassifier {
    fn predict(&self, sample: &[f64]) -> Result<usize, MlError> {
        let row = self.scaler.transform_row(sample)?;
        let d = row.len();
        let hidden: Vec<f64> = self
            .w1
            .iter()
            .map(|w| {
                let z: f64 = w[..d].iter().zip(&row).map(|(a, b)| a * b).sum::<f64>() + w[d];
                z.max(0.0)
            })
            .collect();
        let best = self
            .w2
            .iter()
            .map(|w| {
                w[..HIDDEN]
                    .iter()
                    .zip(&hidden)
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
                    + w[HIDDEN]
            })
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("logits are finite"))
            .map(|(i, _)| i)
            .expect("at least one class");
        Ok(self.classes[best])
    }

    fn predict_into(&self, samples: &[f64], d: usize, out: &mut Vec<usize>) -> Result<(), MlError> {
        crate::classify::check_batch(samples, d)?;
        let mut scaled = vec![0.0; self.w1.first().map_or(0, |w| w.len() - 1)];
        let mut hidden = vec![0.0; self.w1.len()];
        out.clear();
        out.reserve(samples.len() / d);
        for row in samples.chunks_exact(d) {
            self.scaler.transform_row_into(row, &mut scaled)?;
            let dd = scaled.len();
            for (hz, w) in hidden.iter_mut().zip(&self.w1) {
                let z: f64 = w[..dd].iter().zip(&scaled).map(|(a, b)| a * b).sum::<f64>() + w[dd];
                *hz = z.max(0.0);
            }
            let best = self
                .w2
                .iter()
                .map(|w| {
                    w[..HIDDEN]
                        .iter()
                        .zip(&hidden)
                        .map(|(a, b)| a * b)
                        .sum::<f64>()
                        + w[HIDDEN]
                })
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("logits are finite"))
                .map(|(i, _)| i)
                .expect("at least one class");
            out.push(self.classes[best]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::accuracy;

    #[test]
    fn separable_three_class() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            let j = i as f64 * 0.1;
            rows.push(vec![0.0 + j, 0.0]);
            y.push(0);
            rows.push(vec![10.0, 10.0 + j]);
            y.push(1);
            rows.push(vec![-10.0, 10.0 - j]);
            y.push(2);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let model = MlpClassifier::fit(&x, &y, 3).unwrap();
        let pred = model.predict_all(&x).unwrap();
        assert!(accuracy(&pred, &y) > 0.95);
    }

    #[test]
    fn learns_xor_unlike_a_linear_model() {
        // XOR needs the hidden layer; replicate points so SGD has data.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..12 {
            let eps = i as f64 * 0.01;
            rows.push(vec![0.0 + eps, 0.0]);
            y.push(0);
            rows.push(vec![1.0, 1.0 - eps]);
            y.push(0);
            rows.push(vec![0.0 + eps, 1.0]);
            y.push(1);
            rows.push(vec![1.0, 0.0 + eps]);
            y.push(1);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let model = MlpClassifier::fit(&x, &y, 11).unwrap();
        let pred = model.predict_all(&x).unwrap();
        assert!(accuracy(&pred, &y) > 0.9, "acc = {}", accuracy(&pred, &y));
    }

    #[test]
    fn deterministic_given_seed() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![5.0], vec![6.0]]).unwrap();
        let y = [0, 0, 1, 1];
        let a = MlpClassifier::fit(&x, &y, 9).unwrap();
        let b = MlpClassifier::fit(&x, &y, 9).unwrap();
        for probe in [[0.5], [3.0], [5.5]] {
            assert_eq!(a.predict(&probe).unwrap(), b.predict(&probe).unwrap());
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let x = Matrix::from_rows(&[vec![0.0, 1.0]]).unwrap();
        assert!(matches!(
            MlpClassifier::fit(&x, &[0, 1], 0),
            Err(MlError::DimensionMismatch { .. })
        ));
        let model = MlpClassifier::fit(&x, &[0], 0).unwrap();
        assert!(matches!(
            model.predict(&[1.0, 2.0, 3.0]),
            Err(MlError::DimensionMismatch { .. })
        ));
    }
}
