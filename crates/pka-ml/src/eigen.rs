//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! PCA needs the eigenpairs of a covariance matrix; the feature space is
//! small (12 metrics in Table 2 of the paper), where Jacobi is simple,
//! numerically robust and plenty fast.

use crate::{Matrix, MlError};

/// Result of a symmetric eigendecomposition: eigenvalues in descending
/// order with matching eigenvectors (columns of an orthogonal matrix,
/// returned as rows here for convenient iteration).
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// `vectors[i]` is the unit eigenvector paired with `values[i]`.
    pub vectors: Vec<Vec<f64>>,
}

const MAX_SWEEPS: usize = 100;
const TOLERANCE: f64 = 1e-12;

/// Computes the eigendecomposition of a symmetric matrix.
///
/// # Errors
///
/// * [`MlError::DimensionMismatch`] if the matrix is not square.
/// * [`MlError::EmptyInput`] if the matrix is 0×0.
/// * [`MlError::DidNotConverge`] if the off-diagonal mass does not vanish
///   within the sweep budget (does not happen for well-formed symmetric
///   input).
pub fn jacobi_eigen(m: &Matrix) -> Result<EigenDecomposition, MlError> {
    let n = m.rows();
    if n == 0 {
        return Err(MlError::EmptyInput);
    }
    if m.cols() != n {
        return Err(MlError::DimensionMismatch {
            expected: n,
            actual: m.cols(),
        });
    }

    // Working copy of the matrix and accumulated rotations.
    let mut a: Vec<Vec<f64>> = (0..n).map(|i| m.row(i).to_vec()).collect();
    let mut v: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..n).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
        .collect();

    // The scale of the problem, for a relative convergence criterion.
    let scale: f64 = a
        .iter()
        .flat_map(|r| r.iter().map(|x| x * x))
        .sum::<f64>()
        .sqrt()
        .max(f64::MIN_POSITIVE);

    let mut converged = false;
    for _ in 0..MAX_SWEEPS {
        let off: f64 = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .map(|(i, j)| a[i][j] * a[i][j])
            .sum::<f64>()
            .sqrt();
        if off <= TOLERANCE * scale {
            converged = true;
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = a[p][q];
                if apq.abs() <= TOLERANCE * scale / (n * n) as f64 {
                    continue;
                }
                let app = a[p][p];
                let aqq = a[q][q];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                for row in a.iter_mut() {
                    let akp = row[p];
                    let akq = row[q];
                    row[p] = c * akp - s * akq;
                    row[q] = s * akp + c * akq;
                }
                #[allow(clippy::needless_range_loop)]
                // rows p and q alias; iter_mut cannot express this
                for k in 0..n {
                    let apk = a[p][k];
                    let aqk = a[q][k];
                    a[p][k] = c * apk - s * aqk;
                    a[q][k] = s * apk + c * aqk;
                }
                for vk in v.iter_mut() {
                    let vp = vk[p];
                    let vq = vk[q];
                    vk[p] = c * vp - s * vq;
                    vk[q] = s * vp + c * vq;
                }
            }
        }
    }
    if !converged {
        // One final check: the loop may have exhausted sweeps exactly at
        // convergence.
        let off: f64 = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .map(|(i, j)| a[i][j] * a[i][j])
            .sum::<f64>()
            .sqrt();
        if off > TOLERANCE * scale {
            return Err(MlError::DidNotConverge {
                algorithm: "jacobi eigendecomposition",
                max_iterations: MAX_SWEEPS,
            });
        }
    }

    let mut pairs: Vec<(f64, Vec<f64>)> = (0..n)
        .map(|i| (a[i][i], (0..n).map(|k| v[k][i]).collect()))
        .collect();
    pairs.sort_by(|x, y| y.0.partial_cmp(&x.0).expect("eigenvalues are finite"));

    Ok(EigenDecomposition {
        values: pairs.iter().map(|p| p.0).collect(),
        vectors: pairs.into_iter().map(|p| p.1).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_diagonal() {
        let m = mat(&[&[3.0, 0.0], &[0.0, 1.0]]);
        let e = jacobi_eigen(&m).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let m = mat(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = jacobi_eigen(&m).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
        // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
        let v = &e.vectors[0];
        assert!((v[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v[0] - v[1]).abs() < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = mat(&[
            &[4.0, 1.0, 0.5, -0.2],
            &[1.0, 3.0, 0.7, 0.1],
            &[0.5, 0.7, 2.0, 0.3],
            &[-0.2, 0.1, 0.3, 1.0],
        ]);
        let e = jacobi_eigen(&m).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let dot: f64 = e.vectors[i]
                    .iter()
                    .zip(&e.vectors[j])
                    .map(|(a, b)| a * b)
                    .sum();
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-9, "({i},{j}) dot={dot}");
            }
        }
    }

    #[test]
    fn reconstruction_satisfies_av_eq_lambda_v() {
        let m = mat(&[&[5.0, 2.0, 1.0], &[2.0, 4.0, -1.0], &[1.0, -1.0, 3.0]]);
        let e = jacobi_eigen(&m).unwrap();
        for (lambda, vec) in e.values.iter().zip(&e.vectors) {
            for i in 0..3 {
                let av: f64 = (0..3).map(|j| m.get(i, j) * vec[j]).sum();
                assert!((av - lambda * vec[i]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn trace_is_preserved() {
        let m = mat(&[&[1.0, 0.3], &[0.3, 2.0]]);
        let e = jacobi_eigen(&m).unwrap();
        assert!((e.values.iter().sum::<f64>() - 3.0).abs() < 1e-10);
    }

    #[test]
    fn non_square_rejected() {
        let m = Matrix::zeros(2, 3);
        assert!(matches!(
            jacobi_eigen(&m),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn one_by_one() {
        let m = mat(&[&[7.0]]);
        let e = jacobi_eigen(&m).unwrap();
        assert_eq!(e.values, vec![7.0]);
        assert_eq!(e.vectors, vec![vec![1.0]]);
    }

    #[test]
    fn zero_matrix() {
        let m = Matrix::zeros(3, 3);
        let e = jacobi_eigen(&m).unwrap();
        assert!(e.values.iter().all(|&v| v.abs() < 1e-12));
    }
}
