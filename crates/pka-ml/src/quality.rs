//! Clustering-quality diagnostics: silhouette coefficient and
//! Davies–Bouldin index.
//!
//! PKS selects K by projection error, but a user tuning the pipeline wants
//! to know whether the clusters themselves are crisp or mushy — these are
//! the two standard internal validity measures, reported by the PKS
//! diagnostics and the experiment harness.

use crate::{Matrix, MlError};

/// Mean silhouette coefficient over all points, in `[-1, 1]`.
///
/// For each point, `a` is its mean distance to its own cluster's other
/// members and `b` the smallest mean distance to another cluster; the
/// silhouette is `(b - a) / max(a, b)`. Points in singleton clusters score
/// 0 (scikit-learn's convention). Values near 1 mean crisp clusters; near
/// 0, overlapping ones.
///
/// # Errors
///
/// * [`MlError::DimensionMismatch`] if `labels.len() != data.rows()`.
/// * [`MlError::EmptyInput`] if `data` is empty.
/// * [`MlError::InvalidParameter`] with fewer than two clusters (the
///   measure is undefined).
///
/// # Examples
///
/// ```
/// use pka_ml::{silhouette_score, Matrix};
///
/// let data = Matrix::from_rows(&[
///     vec![0.0], vec![0.1], vec![10.0], vec![10.1],
/// ])?;
/// let score = silhouette_score(&data, &[0, 0, 1, 1])?;
/// assert!(score > 0.9);
/// # Ok::<(), pka_ml::MlError>(())
/// ```
pub fn silhouette_score(data: &Matrix, labels: &[usize]) -> Result<f64, MlError> {
    validate(data, labels)?;
    let k = labels.iter().copied().max().expect("non-empty") + 1;
    if k < 2 {
        return Err(MlError::InvalidParameter {
            name: "labels",
            message: "silhouette needs at least two clusters".into(),
        });
    }
    let n = data.rows();
    let counts = cluster_counts(labels, k);

    let mut total = 0.0;
    for i in 0..n {
        // Mean distance from point i to each cluster.
        let mut sums = vec![0.0f64; k];
        for j in 0..n {
            if i == j {
                continue;
            }
            // All rows share `data`'s width, so the checked `sq_dist`
            // would re-assert the same equality O(n²) times.
            sums[labels[j]] += Matrix::sq_dist_hot(data.row(i), data.row(j)).sqrt();
        }
        let own = labels[i];
        if counts[own] <= 1 {
            continue; // singleton scores 0
        }
        let a = sums[own] / (counts[own] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != own && counts[c] > 0)
            .map(|c| sums[c] / counts[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if b.is_finite() {
            total += (b - a) / a.max(b).max(f64::MIN_POSITIVE);
        }
    }
    Ok(total / n as f64)
}

/// Davies–Bouldin index (lower is better; 0 is ideal).
///
/// The mean over clusters of the worst-case ratio of within-cluster
/// scatter to between-centroid separation.
///
/// # Errors
///
/// Same conditions as [`silhouette_score`].
///
/// # Examples
///
/// ```
/// use pka_ml::{davies_bouldin_index, Matrix};
///
/// let data = Matrix::from_rows(&[
///     vec![0.0], vec![0.1], vec![10.0], vec![10.1],
/// ])?;
/// let dbi = davies_bouldin_index(&data, &[0, 0, 1, 1])?;
/// assert!(dbi < 0.1);
/// # Ok::<(), pka_ml::MlError>(())
/// ```
pub fn davies_bouldin_index(data: &Matrix, labels: &[usize]) -> Result<f64, MlError> {
    validate(data, labels)?;
    let k = labels.iter().copied().max().expect("non-empty") + 1;
    if k < 2 {
        return Err(MlError::InvalidParameter {
            name: "labels",
            message: "davies-bouldin needs at least two clusters".into(),
        });
    }
    let d = data.cols();
    let counts = cluster_counts(labels, k);

    // Centroids.
    let mut centroids = vec![vec![0.0f64; d]; k];
    for (i, row) in data.iter_rows().enumerate() {
        for (c, &x) in centroids[labels[i]].iter_mut().zip(row) {
            *c += x;
        }
    }
    for (c, &n) in centroids.iter_mut().zip(&counts) {
        if n > 0 {
            for x in c.iter_mut() {
                *x /= n as f64;
            }
        }
    }
    // Mean scatter per cluster.
    let mut scatter = vec![0.0f64; k];
    for (i, row) in data.iter_rows().enumerate() {
        scatter[labels[i]] += Matrix::sq_dist_hot(row, &centroids[labels[i]]).sqrt();
    }
    for (s, &n) in scatter.iter_mut().zip(&counts) {
        if n > 0 {
            *s /= n as f64;
        }
    }

    let live: Vec<usize> = (0..k).filter(|&c| counts[c] > 0).collect();
    let mut total = 0.0;
    for &i in &live {
        let mut worst = 0.0f64;
        for &j in &live {
            if i == j {
                continue;
            }
            let sep = Matrix::sq_dist_hot(&centroids[i], &centroids[j]).sqrt();
            if sep > 0.0 {
                worst = worst.max((scatter[i] + scatter[j]) / sep);
            }
        }
        total += worst;
    }
    Ok(total / live.len() as f64)
}

fn cluster_counts(labels: &[usize], k: usize) -> Vec<u64> {
    let mut counts = vec![0u64; k];
    for &l in labels {
        counts[l] += 1;
    }
    counts
}

fn validate(data: &Matrix, labels: &[usize]) -> Result<(), MlError> {
    if data.rows() == 0 || data.cols() == 0 {
        return Err(MlError::EmptyInput);
    }
    if labels.len() != data.rows() {
        return Err(MlError::DimensionMismatch {
            expected: data.rows(),
            actual: labels.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            let j = i as f64 * 0.01;
            rows.push(vec![0.0 + j, 0.0]);
            labels.push(0);
            rows.push(vec![10.0, 10.0 + j]);
            labels.push(1);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn crisp_clusters_score_high() {
        let (data, labels) = blobs();
        assert!(silhouette_score(&data, &labels).unwrap() > 0.95);
        assert!(davies_bouldin_index(&data, &labels).unwrap() < 0.05);
    }

    #[test]
    fn shuffled_labels_score_poorly() {
        let (data, labels) = blobs();
        // Mix both blobs into each cluster: rows alternate blob membership,
        // so grouping consecutive pairs splits every blob across clusters.
        let scrambled: Vec<usize> = (0..labels.len()).map(|i| (i / 2) % 2).collect();
        let good = silhouette_score(&data, &labels).unwrap();
        let poor = silhouette_score(&data, &scrambled).unwrap();
        assert!(poor < good);
        assert!(poor < 0.2, "{poor}");
        let dbi_good = davies_bouldin_index(&data, &labels).unwrap();
        let dbi_poor = davies_bouldin_index(&data, &scrambled).unwrap();
        assert!(dbi_poor > dbi_good);
    }

    #[test]
    fn single_cluster_rejected() {
        let (data, _) = blobs();
        let one = vec![0usize; data.rows()];
        assert!(silhouette_score(&data, &one).is_err());
        assert!(davies_bouldin_index(&data, &one).is_err());
    }

    #[test]
    fn length_mismatch_rejected() {
        let (data, _) = blobs();
        assert!(matches!(
            silhouette_score(&data, &[0, 1]),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn singletons_are_tolerated() {
        let data = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![9.0]]).unwrap();
        let s = silhouette_score(&data, &[0, 0, 1]).unwrap();
        assert!(s > 0.5);
    }
}
