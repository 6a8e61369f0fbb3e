//! Differential proof that the batched `predict_into` paths label every row
//! exactly as the per-row `predict` reference: same classifiers, same inputs,
//! bit-identical score arithmetic, therefore identical labels. The memoised
//! tail classifier (`EnsembleMemo`) sends its misses through
//! `predict_into`, so batch/stream selection parity leans on this
//! equivalence.

use pka_ml::classify::{Classifier, Ensemble, GaussianNb, MlpClassifier, SgdClassifier};
use pka_ml::{Matrix, MlError};
use pka_stats::hash::UnitStream;

const D: usize = 12;

/// A deterministic blobs dataset: `n` rows around `k` centres, plus a noise
/// floor so classes overlap near their boundaries (the regime where argmax
/// ties and near-ties live).
fn blobs(n: usize, k: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = UnitStream::new(seed);
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % k;
        let row: Vec<f64> = (0..D)
            .map(|j| ((c * 7 + j * 3) % 11) as f64 + rng.next_range(-1.5, 1.5))
            .collect();
        rows.push(row);
        labels.push(c);
    }
    (Matrix::from_rows(&rows).unwrap(), labels)
}

fn flat(m: &Matrix) -> Vec<f64> {
    m.as_slice().to_vec()
}

fn assert_batch_matches(clf: &dyn Classifier, data: &Matrix) {
    let mut batched = Vec::new();
    clf.predict_into(&flat(data), D, &mut batched).unwrap();
    let per_row: Vec<usize> = data.iter_rows().map(|r| clf.predict(r).unwrap()).collect();
    assert_eq!(batched, per_row);
}

#[test]
fn sgd_batch_matches_per_row() {
    let (x, y) = blobs(400, 7, 11);
    let clf = SgdClassifier::fit(&x, &y, 3).unwrap();
    let (probe, _) = blobs(2000, 7, 99);
    assert_batch_matches(&clf, &probe);
}

#[test]
fn gnb_batch_matches_per_row() {
    let (x, y) = blobs(400, 7, 22);
    let clf = GaussianNb::fit(&x, &y).unwrap();
    let (probe, _) = blobs(2000, 7, 98);
    assert_batch_matches(&clf, &probe);
}

#[test]
fn mlp_batch_matches_per_row() {
    let (x, y) = blobs(400, 7, 33);
    let clf = MlpClassifier::fit(&x, &y, 5).unwrap();
    let (probe, _) = blobs(2000, 7, 97);
    assert_batch_matches(&clf, &probe);
}

#[test]
fn ensemble_batch_matches_per_row_including_disagreements() {
    // Train the third member with rotated labels so the outer members
    // disagree on a large fraction of rows and the lazy middle vote runs.
    let (x, y) = blobs(400, 7, 44);
    let (x2, y2) = blobs(150, 7, 55);
    let (x3, y3) = blobs(90, 7, 66);
    let y3_rotated: Vec<usize> = y3.iter().map(|&c| (c + 1) % 7).collect();
    let ensemble = Ensemble::new(vec![
        Box::new(SgdClassifier::fit(&x, &y, 3).unwrap()),
        Box::new(GaussianNb::fit(&x2, &y2).unwrap()),
        Box::new(MlpClassifier::fit(&x3, &y3_rotated, 5).unwrap()),
    ]);
    let (probe, _) = blobs(4000, 7, 96);
    let mut outer = Vec::new();
    let mut mid = Vec::new();
    ensemble.members()[0]
        .predict_into(&flat(&probe), D, &mut outer)
        .unwrap();
    ensemble.members()[2]
        .predict_into(&flat(&probe), D, &mut mid)
        .unwrap();
    let disagreements = outer.iter().zip(&mid).filter(|(a, c)| a != c).count();
    assert!(
        disagreements > 0,
        "probe set never exercises the lazy middle member"
    );
    assert_batch_matches(&ensemble, &probe);
}

#[test]
fn non_three_member_ensembles_fall_back_to_per_row() {
    let (x, y) = blobs(200, 5, 77);
    let one = Ensemble::new(vec![Box::new(GaussianNb::fit(&x, &y).unwrap())]);
    let (probe, _) = blobs(500, 5, 95);
    assert_batch_matches(&one, &probe);
}

#[test]
fn batch_shape_errors_are_rejected() {
    let (x, y) = blobs(50, 3, 88);
    let clf = SgdClassifier::fit(&x, &y, 0).unwrap();
    let mut out = Vec::new();
    assert!(matches!(
        clf.predict_into(&[1.0, 2.0, 3.0], 2, &mut out),
        Err(MlError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        clf.predict_into(&[1.0, 2.0], 0, &mut out),
        Err(MlError::DimensionMismatch { .. })
    ));
    let gnb = GaussianNb::fit(&x, &y).unwrap();
    assert!(matches!(
        gnb.predict_into(&[1.0, 2.0], 2, &mut out),
        Err(MlError::DimensionMismatch { .. })
    ));
}
