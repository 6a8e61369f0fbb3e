use crate::eigen::jacobi_eigen;
use crate::{Matrix, MlError};

/// Principal component analysis.
///
/// Fits on a (typically pre-standardised) sample matrix, producing an
/// orthogonal projection onto the directions of greatest variance.
/// *Principal Kernel Selection* projects the 12 architecture-agnostic kernel
/// metrics (Table 2 of the paper) down to a handful of components before
/// clustering, explicitly to dodge the curse of dimensionality (Section 3.1).
///
/// # Examples
///
/// ```
/// use pka_ml::{Matrix, Pca};
///
/// // Points along the line y = 2x: one dominant direction.
/// let data = Matrix::from_rows(&[
///     vec![1.0, 2.0],
///     vec![2.0, 4.0],
///     vec![3.0, 6.0],
///     vec![4.0, 8.0],
/// ])?;
/// let fit = Pca::new(2).fit(&data)?;
/// assert!(fit.explained_variance_ratio()[0] > 0.999);
/// # Ok::<(), pka_ml::MlError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pca {
    n_components: usize,
}

impl Pca {
    /// Configures a PCA keeping `n_components` components.
    pub fn new(n_components: usize) -> Self {
        Self { n_components }
    }

    /// Configures a PCA that keeps as many leading components as needed to
    /// explain at least `fraction` of the total variance. Applied at
    /// [`fit`](Pca::fit) time via [`PcaFit::truncated_to_variance`].
    ///
    /// This is the policy the PKA tooling uses: keep the explainable core,
    /// drop the noise floor.
    pub fn full() -> Self {
        Self {
            n_components: usize::MAX,
        }
    }

    /// Fits the projection on `data` (rows are samples).
    ///
    /// # Errors
    ///
    /// * [`MlError::EmptyInput`] if `data` is empty.
    /// * [`MlError::InvalidParameter`] if zero components were requested.
    /// * Propagates eigensolver errors.
    pub fn fit(&self, data: &Matrix) -> Result<PcaFit, MlError> {
        let _span = pka_obs::span("pca.fit");
        if self.n_components == 0 {
            return Err(MlError::InvalidParameter {
                name: "n_components",
                message: "must be at least 1".into(),
            });
        }
        if data.rows() == 0 || data.cols() == 0 {
            return Err(MlError::EmptyInput);
        }
        let cov = data.covariance()?;
        let eig = jacobi_eigen(&cov)?;
        let keep = self.n_components.min(data.cols());
        let total_variance: f64 = eig.values.iter().map(|v| v.max(0.0)).sum();
        Ok(PcaFit {
            means: data.column_means(),
            components: eig.vectors.into_iter().take(keep).collect(),
            eigenvalues: eig.values.into_iter().take(keep).collect(),
            total_variance,
        })
    }
}

/// A fitted PCA projection.
#[derive(Debug, Clone, PartialEq)]
pub struct PcaFit {
    means: Vec<f64>,
    components: Vec<Vec<f64>>,
    eigenvalues: Vec<f64>,
    total_variance: f64,
}

impl PcaFit {
    /// Number of retained components.
    pub fn n_components(&self) -> usize {
        self.components.len()
    }

    /// Eigenvalues (variance along each retained component), descending.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// The retained principal directions (unit vectors in feature space).
    pub fn components(&self) -> &[Vec<f64>] {
        &self.components
    }

    /// Fraction of the total variance captured by each retained component.
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        if self.total_variance <= 0.0 {
            return vec![0.0; self.eigenvalues.len()];
        }
        self.eigenvalues
            .iter()
            .map(|v| v.max(0.0) / self.total_variance)
            .collect()
    }

    /// Returns a copy truncated to the smallest number of leading components
    /// whose cumulative explained-variance ratio reaches `fraction`
    /// (clamped to `[0, 1]`). At least one component is always kept.
    pub fn truncated_to_variance(&self, fraction: f64) -> PcaFit {
        let fraction = fraction.clamp(0.0, 1.0);
        let ratios = self.explained_variance_ratio();
        let mut cum = 0.0;
        let mut keep = 1;
        for (i, r) in ratios.iter().enumerate() {
            cum += r;
            keep = i + 1;
            if cum >= fraction {
                break;
            }
        }
        PcaFit {
            means: self.means.clone(),
            components: self.components[..keep].to_vec(),
            eigenvalues: self.eigenvalues[..keep].to_vec(),
            total_variance: self.total_variance,
        }
    }

    /// Projects a sample matrix into component space.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on column-count mismatch.
    pub fn transform(&self, data: &Matrix) -> Result<Matrix, MlError> {
        if data.cols() != self.means.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.means.len(),
                actual: data.cols(),
            });
        }
        let mut out = Matrix::zeros(data.rows(), self.components.len());
        for (i, row) in data.iter_rows().enumerate() {
            for (j, comp) in self.components.iter().enumerate() {
                out.set(i, j, self.project(row, comp));
            }
        }
        Ok(out)
    }

    /// Projects a single sample into component space.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on column-count mismatch.
    pub fn transform_row(&self, row: &[f64]) -> Result<Vec<f64>, MlError> {
        if row.len() != self.means.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.means.len(),
                actual: row.len(),
            });
        }
        Ok(self
            .components
            .iter()
            .map(|comp| self.project(row, comp))
            .collect())
    }

    /// `Σ (x − m)·c` folded in ascending-dimension order: the one
    /// projection both paths share, so a streamed record projects to the
    /// same bits as its row in a batch.
    fn project(&self, row: &[f64], comp: &[f64]) -> f64 {
        row.iter()
            .zip(self.means.iter().zip(comp))
            .map(|(&x, (&m, &c))| (x - m) * c)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_components_rejected() {
        let data = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        assert!(matches!(
            Pca::new(0).fit(&data),
            Err(MlError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn dominant_direction_recovered() {
        // Strong variance along (1, 1), tiny along (1, -1).
        let data = Matrix::from_rows(&[
            vec![0.0, 0.1],
            vec![1.0, 0.9],
            vec![2.0, 2.1],
            vec![3.0, 2.9],
            vec![4.0, 4.1],
        ])
        .unwrap();
        let fit = Pca::new(2).fit(&data).unwrap();
        let c0 = &fit.components()[0];
        // First component aligned (up to sign) with (1,1)/sqrt(2).
        assert!((c0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.05);
        assert!((c0[0] - c0[1]).abs() < 0.1 || (c0[0] + c0[1]).abs() < 0.1);
        let evr = fit.explained_variance_ratio();
        assert!(evr[0] > 0.99);
    }

    #[test]
    fn transform_preserves_pairwise_distances_for_full_rank() {
        // Orthogonal projection with all components kept is an isometry on
        // centred data.
        let data = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![-1.0, 0.0, 1.5],
            vec![2.0, -1.0, 0.0],
            vec![0.0, 1.0, -2.0],
        ])
        .unwrap();
        let fit = Pca::full().fit(&data).unwrap();
        let t = fit.transform(&data).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let d_orig = Matrix::sq_dist(data.row(i), data.row(j));
                let d_proj = Matrix::sq_dist(t.row(i), t.row(j));
                assert!((d_orig - d_proj).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn truncation_keeps_at_least_one() {
        let data = Matrix::from_rows(&[vec![1.0, 0.0], vec![2.0, 0.0], vec![3.0, 0.0]]).unwrap();
        let fit = Pca::full().fit(&data).unwrap();
        let t = fit.truncated_to_variance(0.0);
        assert_eq!(t.n_components(), 1);
        let t = fit.truncated_to_variance(1.0);
        assert!(t.n_components() >= 1);
    }

    #[test]
    fn truncation_reaches_requested_variance() {
        let data = Matrix::from_rows(&[
            vec![10.0, 1.0, 0.1],
            vec![-10.0, -1.0, -0.1],
            vec![20.0, 2.0, 0.0],
            vec![-20.0, -2.0, 0.0],
        ])
        .unwrap();
        let fit = Pca::full().fit(&data).unwrap();
        let t = fit.truncated_to_variance(0.9);
        let captured: f64 = t.explained_variance_ratio().iter().sum();
        assert!(captured >= 0.9);
    }

    #[test]
    fn transform_row_matches_matrix_path() {
        let data = Matrix::from_rows(&[vec![1.0, 4.0], vec![2.0, 3.0], vec![5.0, 1.0]]).unwrap();
        let fit = Pca::new(2).fit(&data).unwrap();
        let m = fit.transform(&data).unwrap();
        for i in 0..3 {
            let r = fit.transform_row(data.row(i)).unwrap();
            for j in 0..2 {
                assert!((r[j] - m.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn constant_data_yields_zero_ratios() {
        let data = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let fit = Pca::full().fit(&data).unwrap();
        assert!(fit.explained_variance_ratio().iter().all(|&r| r == 0.0));
    }
}
