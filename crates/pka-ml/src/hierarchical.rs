use crate::{Matrix, MlError};

/// Linkage criterion for agglomerative clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Linkage {
    /// Distance between clusters = mean pairwise distance (UPGMA). This is
    /// what TBPoint's clustering uses.
    #[default]
    Average,
    /// Distance between clusters = minimum pairwise distance.
    Single,
    /// Distance between clusters = maximum pairwise distance.
    Complete,
}

/// Agglomerative (bottom-up) hierarchical clustering.
///
/// Implements the clustering the **TBPoint** baseline relies on. The
/// paper's central scalability argument (Section 3.1) is that hierarchical
/// clustering "demands an impractical amount of memory and runtime" on
/// million-kernel workloads — and this implementation is honest about
/// that: it materialises the full `O(n²)` distance matrix and merges with
/// Lance–Williams updates in `O(n³)` worst-case time. The
/// `clustering_scalability` benchmark exploits this to reproduce the
/// paper's argument quantitatively.
///
/// For threshold sweeps (TBPoint sweeps 20 cut heights), build the
/// [`Dendrogram`] once and [`cut`](Dendrogram::cut) it repeatedly — each
/// cut is near-linear.
///
/// # Examples
///
/// ```
/// use pka_ml::{Agglomerative, Matrix};
///
/// let data = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![5.0]])?;
/// let labels = Agglomerative::new().cut_at(&data, 1.0)?;
/// assert_eq!(labels[0], labels[1]);
/// assert_ne!(labels[0], labels[2]);
/// # Ok::<(), pka_ml::MlError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Agglomerative {
    linkage: Linkage,
}

impl Agglomerative {
    /// Average-linkage clustering (TBPoint's choice).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the linkage criterion.
    pub fn with_linkage(mut self, linkage: Linkage) -> Self {
        self.linkage = linkage;
        self
    }

    /// Builds the full merge tree: every merge in greedy
    /// closest-pair-first order, with the linkage distance at which it
    /// happened.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyInput`] if `data` has no rows.
    pub fn dendrogram(&self, data: &Matrix) -> Result<Dendrogram, MlError> {
        if data.rows() == 0 || data.cols() == 0 {
            return Err(MlError::EmptyInput);
        }
        let n = data.rows();
        // Condensed distance matrix between live clusters, updated with
        // Lance–Williams coefficients as clusters merge.
        let mut dist = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i + 1..n {
                let d = Matrix::sq_dist(data.row(i), data.row(j)).sqrt();
                dist[i * n + j] = d;
                dist[j * n + i] = d;
            }
        }
        let mut alive: Vec<bool> = vec![true; n];
        let mut size: Vec<u64> = vec![1; n];
        let mut merges = Vec::with_capacity(n.saturating_sub(1));

        for _ in 1..n {
            // Closest live pair.
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..n {
                if !alive[i] {
                    continue;
                }
                for j in i + 1..n {
                    if !alive[j] {
                        continue;
                    }
                    let d = dist[i * n + j];
                    if best.is_none_or(|(_, _, bd)| d < bd) {
                        best = Some((i, j, d));
                    }
                }
            }
            let (a, b, d) = best.expect("at least two live clusters");
            merges.push(Merge {
                left: a,
                right: b,
                distance: d,
            });
            // Merge b into a; update distances via Lance–Williams.
            let (sa, sb) = (size[a] as f64, size[b] as f64);
            for k in 0..n {
                if !alive[k] || k == a || k == b {
                    continue;
                }
                let dka = dist[k * n + a];
                let dkb = dist[k * n + b];
                let updated = match self.linkage {
                    Linkage::Average => (sa * dka + sb * dkb) / (sa + sb),
                    Linkage::Single => dka.min(dkb),
                    Linkage::Complete => dka.max(dkb),
                };
                dist[k * n + a] = updated;
                dist[a * n + k] = updated;
            }
            size[a] += size[b];
            alive[b] = false;
        }
        Ok(Dendrogram { n, merges })
    }

    /// Merges clusters until every inter-cluster distance exceeds
    /// `threshold`, then returns a label per row (labels are compacted to
    /// `0..n_clusters` in first-appearance order).
    ///
    /// # Errors
    ///
    /// * [`MlError::EmptyInput`] if `data` has no rows.
    /// * [`MlError::InvalidParameter`] if `threshold` is negative or NaN.
    pub fn cut_at(&self, data: &Matrix, threshold: f64) -> Result<Vec<usize>, MlError> {
        if threshold.is_nan() || threshold < 0.0 {
            return Err(MlError::InvalidParameter {
                name: "threshold",
                message: "must be non-negative and not NaN".into(),
            });
        }
        Ok(self.dendrogram(data)?.cut(threshold))
    }

    /// Number of clusters produced by [`cut_at`](Self::cut_at) for a given
    /// threshold.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`cut_at`](Self::cut_at).
    pub fn cluster_count(&self, data: &Matrix, threshold: f64) -> Result<usize, MlError> {
        let labels = self.cut_at(data, threshold)?;
        Ok(labels.iter().copied().max().map_or(0, |m| m + 1))
    }
}

/// One merge event in a [`Dendrogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Merge {
    left: usize,
    right: usize,
    distance: f64,
}

/// A fully-built agglomerative merge tree: cut it at any height in
/// near-linear time (the structure TBPoint's 20-threshold sweep needs —
/// one `O(n³)` build, twenty cheap cuts).
///
/// # Examples
///
/// ```
/// use pka_ml::{Agglomerative, Matrix};
///
/// let data = Matrix::from_rows(&[vec![0.0], vec![0.2], vec![9.0]])?;
/// let tree = Agglomerative::new().dendrogram(&data)?;
/// assert_eq!(tree.cluster_count(1.0), 2);
/// assert_eq!(tree.cluster_count(100.0), 1);
/// # Ok::<(), pka_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    n: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Number of leaves (input rows).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` for an empty tree (never produced by
    /// [`Agglomerative::dendrogram`]).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Applies every merge whose linkage distance is at most `threshold`
    /// and returns labels compacted to `0..n_clusters` in first-appearance
    /// order.
    pub fn cut(&self, threshold: f64) -> Vec<usize> {
        // Union-find over the leaves.
        let mut parent: Vec<usize> = (0..self.n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for m in &self.merges {
            if m.distance > threshold {
                break;
            }
            let a = find(&mut parent, m.left);
            let b = find(&mut parent, m.right);
            parent[b] = a;
        }
        // Compact roots to 0..k in first-appearance order.
        let mut labels = vec![usize::MAX; self.n];
        let mut next = 0usize;
        let mut root_label = std::collections::HashMap::new();
        for i in 0..self.n {
            let r = find(&mut parent, i);
            let l = *root_label.entry(r).or_insert_with(|| {
                let l = next;
                next += 1;
                l
            });
            labels[i] = l;
        }
        labels
    }

    /// Cluster count at a cut height.
    pub fn cluster_count(&self, threshold: f64) -> usize {
        self.cut(threshold).into_iter().max().map_or(0, |m| m + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> Matrix {
        Matrix::from_rows(&[vec![0.0], vec![0.1], vec![0.2], vec![10.0], vec![10.1]]).unwrap()
    }

    #[test]
    fn invalid_threshold_rejected() {
        let data = line();
        assert!(Agglomerative::new().cut_at(&data, -1.0).is_err());
        assert!(Agglomerative::new().cut_at(&data, f64::NAN).is_err());
    }

    #[test]
    fn two_well_separated_groups() {
        let labels = Agglomerative::new().cut_at(&line(), 1.0).unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn zero_threshold_keeps_singletons() {
        let labels = Agglomerative::new().cut_at(&line(), 0.0).unwrap();
        let mut distinct = labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn huge_threshold_merges_everything() {
        let labels = Agglomerative::new().cut_at(&line(), 1e9).unwrap();
        assert!(labels.iter().all(|&l| l == labels[0]));
    }

    #[test]
    fn cluster_count_monotone_in_threshold() {
        let data = line();
        let tree = Agglomerative::new().dendrogram(&data).unwrap();
        let mut prev = usize::MAX;
        for t in [0.0, 0.05, 0.15, 1.0, 20.0] {
            let c = tree.cluster_count(t);
            assert!(c <= prev, "threshold {t} produced {c} > {prev}");
            prev = c;
        }
    }

    #[test]
    fn dendrogram_cuts_match_direct_clustering() {
        let data = line();
        let tree = Agglomerative::new().dendrogram(&data).unwrap();
        for t in [0.0, 0.11, 0.5, 2.0, 20.0] {
            let via_tree = tree.cut(t);
            let direct = Agglomerative::new().cut_at(&data, t).unwrap();
            assert_eq!(via_tree, direct, "threshold {t}");
        }
    }

    #[test]
    fn linkages_agree_on_clean_data() {
        let data = line();
        for linkage in [Linkage::Average, Linkage::Single, Linkage::Complete] {
            let labels = Agglomerative::new()
                .with_linkage(linkage)
                .cut_at(&data, 1.0)
                .unwrap();
            assert_eq!(labels[0], labels[2], "{linkage:?}");
            assert_ne!(labels[0], labels[4], "{linkage:?}");
        }
    }

    #[test]
    fn single_point() {
        let data = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let labels = Agglomerative::new().cut_at(&data, 1.0).unwrap();
        assert_eq!(labels, vec![0]);
        let tree = Agglomerative::new().dendrogram(&data).unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.cluster_count(0.0), 1);
    }

    #[test]
    fn chain_behaviour_differs_single_vs_complete() {
        // A chain 0 - 1 - 2 - ... each 1.0 apart. Single linkage merges the
        // whole chain at threshold 1.0; complete linkage does not.
        let data = Matrix::from_rows(&(0..6).map(|i| vec![i as f64]).collect::<Vec<_>>()).unwrap();
        let single = Agglomerative::new()
            .with_linkage(Linkage::Single)
            .cluster_count(&data, 1.0)
            .unwrap();
        let complete = Agglomerative::new()
            .with_linkage(Linkage::Complete)
            .cluster_count(&data, 1.0)
            .unwrap();
        assert_eq!(single, 1);
        assert!(complete > 1);
    }

    #[test]
    fn average_linkage_separates_pods_from_outlier() {
        let data = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.2],
            vec![0.4, 0.9],
            vec![6.0, 6.0],
            vec![6.5, 5.5],
            vec![3.1, 3.0],
        ])
        .unwrap();
        let tree = Agglomerative::new().dendrogram(&data).unwrap();
        let labels = tree.cut(2.0);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[5], labels[0]);
        assert_ne!(labels[5], labels[3]);
    }
}
