//! Bounded-vs-reference K-Means parity: the clustering determinism contract.
//!
//! The bounded (Hamerly-style) assignment path in [`KMeans::fit`] prunes
//! distance computations with conservative triangle-inequality bounds, fans
//! chunks over worker threads, and re-sums only dirty clusters — yet it
//! must produce **bitwise identical** fits to the naive Lloyd's reference
//! (`fit_reference`), for any worker count. These tests compare whole
//! [`KMeansFit`] structs with `assert_eq!` (labels, every centroid
//! coordinate, inertia), so a one-ULP divergence anywhere fails the suite.
//!
//! [`KMeans::fit`]: principal_kernel_analysis::ml::KMeans::fit
//! [`KMeansFit`]: principal_kernel_analysis::ml::KMeansFit

use principal_kernel_analysis::ml::{KMeans, KMeansFit, Matrix, MlError};
use principal_kernel_analysis::stats::hash::UnitStream;
use principal_kernel_analysis::stats::Executor;

/// Worker counts exercised against the naive reference. Chunk grids are
/// worker-count-invariant, so every count must agree bitwise.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Clustering seeds for the parity matrix.
const SEEDS: [u64; 3] = [0, 1, 0x9E3779B97F4A7C15];

/// Data shapes `(n, d, k)` spanning below/above the assignment chunk size,
/// k near n, and non-power-of-two everything.
const SHAPES: [(usize, usize, usize); 4] = [(60, 2, 3), (200, 5, 7), (513, 3, 16), (97, 4, 5)];

/// Deterministic blob cloud: `n` points of dimension `d` scattered around
/// `modes` lattice centres.
fn cloud(n: usize, d: usize, modes: usize, seed: u64) -> Matrix {
    let mut rng = UnitStream::new(seed ^ 0xC10D);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let c = i % modes;
            (0..d)
                .map(|j| ((c * 7 + j * 3) % 11) as f64 * 3.0 + rng.next_range(-0.5, 0.5))
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows).expect("valid cloud")
}

/// Asserts the bounded fit equals the reference fit bitwise, for every
/// worker count.
fn assert_parity(data: &Matrix, k: usize, seed: u64) {
    let reference = KMeans::new(k)
        .with_seed(seed)
        .fit_reference(data)
        .expect("reference fit");
    for &workers in &WORKER_COUNTS {
        let fit = KMeans::new(k)
            .with_seed(seed)
            .with_executor(Executor::new(workers))
            .fit(data)
            .expect("bounded fit");
        assert_eq!(
            fit, reference,
            "bounded fit diverged from reference: k={k} seed={seed} workers={workers}"
        );
        assert_eq!(
            fit.inertia().to_bits(),
            reference.inertia().to_bits(),
            "inertia bits diverged: k={k} seed={seed} workers={workers}"
        );
    }
}

fn mode_count(fit: &KMeansFit) -> usize {
    let mut labels: Vec<usize> = fit.labels().to_vec();
    labels.sort_unstable();
    labels.dedup();
    labels.len()
}

#[test]
fn bounded_matches_reference_across_seeds_shapes_and_workers() {
    for &(n, d, k) in &SHAPES {
        for &seed in &SEEDS {
            let data = cloud(n, d, k.min(8), seed);
            assert_parity(&data, k, seed);
        }
    }
}

#[test]
fn parity_holds_when_k_exceeds_mode_count() {
    // More centroids than natural modes: centroids oscillate inside tight
    // blobs, the worst case for bound-based pruning, and empty-cluster
    // reseeds fire.
    let data = cloud(150, 3, 4, 9);
    for k in [6, 10, 16] {
        assert_parity(&data, k, 0);
    }
}

#[test]
fn parity_on_identical_points() {
    // Every point identical: all distances tie at zero, so label choice is
    // purely comparison-order; reseeds fire every iteration. Strict `<` in
    // ascending centroid order keeps the first centroid.
    let rows: Vec<Vec<f64>> = (0..40).map(|_| vec![2.5, -1.0, 7.0]).collect();
    let data = Matrix::from_rows(&rows).expect("valid");
    for k in [1, 3, 5] {
        assert_parity(&data, k, 0);
        let fit = KMeans::new(k).with_seed(0).fit(&data).expect("fit");
        assert!(fit.centroids().iter().all(|c| c == &rows[0]), "k={k}");
        assert_eq!(fit.predict(&rows[0]).expect("predict"), 0, "k={k}");
    }
}

#[test]
fn parity_on_denormal_extreme_and_non_finite_inputs() {
    // Denormals, signed zeros and magnitudes whose squares approach 1e34:
    // the bounded path's padding must stay conservative at both ends.
    let rows = vec![
        vec![5e-324, 0.0],
        vec![1e-308, -0.0],
        vec![-5e-324, 1e-310],
        vec![1e17, 1e17],
        vec![1e17, -1e17],
        vec![0.0, 1.0],
    ];
    let data = Matrix::from_rows(&rows).expect("valid");
    for k in 1..=4 {
        assert_parity(&data, k, 0);
    }
    // One cluster over a row holding ±inf or NaN: the centroid and inertia
    // go non-finite, identically on both paths (compared through `Debug`,
    // where every NaN prints alike).
    for bad in [
        vec![vec![f64::INFINITY, 0.0]],
        vec![vec![f64::INFINITY, 0.0], vec![f64::NEG_INFINITY, 1.0]],
        vec![vec![f64::NAN, 0.0]],
    ] {
        let mut rows = vec![vec![0.0, 0.0], vec![0.5, 0.1], vec![10.0, 10.0]];
        rows.extend(bad);
        let data = Matrix::from_rows(&rows).expect("valid");
        let reference = KMeans::new(1).fit_reference(&data).expect("reference fit");
        assert!(!reference.inertia().is_finite());
        for &workers in &WORKER_COUNTS {
            let fit = KMeans::new(1)
                .with_executor(Executor::new(workers))
                .fit(&data)
                .expect("bounded fit");
            assert_eq!(
                format!("{fit:?}"),
                format!("{reference:?}"),
                "workers={workers}"
            );
        }
    }
}

#[test]
fn non_finite_input_is_refused_for_two_or_more_clusters() {
    for (bad, shown) in [
        (f64::INFINITY, "inf"),
        (f64::NEG_INFINITY, "-inf"),
        (f64::NAN, "NaN"),
    ] {
        let rows = vec![
            vec![0.0, 0.0],
            vec![0.5, 0.1],
            vec![10.0, bad],
            vec![10.0, 10.0],
        ];
        let data = Matrix::from_rows(&rows).expect("valid");
        for k in [2, 3, 9] {
            let bounded = KMeans::new(k).with_executor(Executor::new(2)).fit(&data);
            let reference = KMeans::new(k).fit_reference(&data);
            for got in [bounded, reference] {
                match got {
                    Err(MlError::InvalidParameter {
                        name: "data",
                        message,
                    }) => assert_eq!(
                        message,
                        format!("row 2 column 1 is {shown}; k >= 2 needs finite values"),
                    ),
                    other => panic!("k={k} {shown}: expected a refusal, got {other:?}"),
                }
            }
        }
    }
}

#[test]
fn degenerate_shapes_are_exact() {
    // d = 0: both checked and hot variants agree on the empty fold.
    assert_eq!(Matrix::sq_dist(&[], &[]), 0.0);
    assert_eq!(Matrix::sq_dist_hot(&[], &[]), 0.0);
    // d = 1: a single squared difference.
    assert_eq!(Matrix::sq_dist(&[3.0], &[-1.0]), 16.0);
    assert_eq!(
        Matrix::sq_dist_hot(&[3.0], &[-1.0]).to_bits(),
        16.0f64.to_bits()
    );
    // Single-row matrix: valid, row-addressable, zero distance to itself.
    let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).expect("single row");
    assert_eq!(m.rows(), 1);
    assert_eq!(Matrix::sq_dist(m.row(0), m.row(0)), 0.0);
    // One row, and one column: both paths fit them identically.
    assert_parity(&m, 1, 0);
    assert_parity(&m, 3, 0);
    let column =
        Matrix::from_rows(&[vec![4.0], vec![-1.0], vec![4.0], vec![9.5]]).expect("single column");
    for k in 1..=4 {
        assert_parity(&column, k, 0);
    }
}

#[test]
fn parity_under_reseed_stress() {
    // Ten points in one spot, two far away, k = 4: at least one cluster
    // starts or goes empty and must reseed on the farthest point.
    let mut rows: Vec<Vec<f64>> = (0..10).map(|_| vec![0.0, 0.0]).collect();
    rows.push(vec![100.0, 100.0]);
    rows.push(vec![100.0, 100.0]);
    let data = Matrix::from_rows(&rows).expect("valid");
    assert_parity(&data, 4, 0);
    assert_parity(&data, 4, 1);
}

#[test]
fn parity_when_k_exceeds_n() {
    // k capped to n distinct behaviours by construction of ++ init;
    // whatever the implementations do, they must do it identically.
    let data = cloud(5, 2, 3, 3);
    for k in [5, 7] {
        let reference = KMeans::new(k).with_seed(0).fit_reference(&data);
        let bounded = KMeans::new(k)
            .with_seed(0)
            .with_executor(Executor::new(4))
            .fit(&data);
        match (bounded, reference) {
            (Ok(b), Ok(r)) => {
                assert_eq!(b, r, "k={k}");
                assert!(mode_count(&b) <= 5);
            }
            (Err(b), Err(r)) => assert_eq!(format!("{b}"), format!("{r}"), "k={k}"),
            (b, r) => panic!("paths disagree on fallibility: k={k} {b:?} vs {r:?}"),
        }
    }
}

#[test]
fn sequential_executor_matches_default() {
    let data = cloud(300, 4, 6, 5);
    let default_fit = KMeans::new(6).with_seed(2).fit(&data).expect("fit");
    let seq_fit = KMeans::new(6)
        .with_seed(2)
        .with_executor(Executor::sequential())
        .fit(&data)
        .expect("fit");
    assert_eq!(default_fit, seq_fit);
}

#[test]
fn ties_keep_the_first_centroid_and_nan_distances_never_place() {
    // Two distinct points and up to four clusters: the surplus centroids
    // coincide with real ones, so nearest-centroid choices are exact ties.
    // The bounded path's scan must break them as the reference does, and
    // `predict` (strict `<` in ascending centroid order) keeps the first
    // of equal distances.
    let rows = vec![
        vec![0.0, 1.0],
        vec![3.0, -2.0],
        vec![0.0, 1.0],
        vec![3.0, -2.0],
        vec![3.0, -2.0],
    ];
    let data = Matrix::from_rows(&rows).expect("valid");
    for k in 2..=4 {
        for &seed in &SEEDS {
            assert_parity(&data, k, seed);
            let fit = KMeans::new(k).with_seed(seed).fit(&data).expect("fit");
            let mut distinct = fit.centroids().to_vec();
            distinct.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            distinct.dedup();
            assert_eq!(
                distinct.len(),
                2,
                "k={k} seed={seed}: every centroid sits on one of the two points"
            );
            for (i, row) in rows.iter().enumerate() {
                let dists: Vec<f64> = fit
                    .centroids()
                    .iter()
                    .map(|c| Matrix::sq_dist(row, c))
                    .collect();
                let min = dists.iter().copied().fold(f64::INFINITY, f64::min);
                let first = dists.iter().position(|&d| d == min).expect("non-empty");
                assert_eq!(
                    fit.predict(row).expect("predict"),
                    first,
                    "k={k} seed={seed} row {i}"
                );
            }
            // A NaN coordinate makes every distance NaN: no comparison
            // succeeds, so no centroid ever takes the point and it keeps
            // the initial index 0.
            for query in [[f64::NAN, 1.0], [0.0, f64::NAN], [f64::NAN, f64::NAN]] {
                assert_eq!(
                    fit.predict(&query).expect("predict"),
                    0,
                    "k={k} seed={seed}"
                );
            }
        }
    }
}
