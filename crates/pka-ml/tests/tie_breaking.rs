//! Tie-breaking contracts for the two-level classifier ensemble.
//!
//! PKA's streaming and batch tail classification must agree bitwise for any
//! worker count, which requires every argmax in the classifiers to resolve
//! ties the same way on every run. These tests pin the rules:
//!
//! * per-model argmax uses `Iterator::max_by`, which keeps the **last**
//!   maximal element — class labels are stored ascending, so an exact
//!   posterior/score tie resolves to the **highest class label**;
//! * the [`Ensemble`] majority vote breaks count ties toward the
//!   **earliest member's vote** (SGD first in the default PKA stack);
//! * predictions are pure functions of (model, sample), so fanning a batch
//!   out over any [`Executor`] width relabels nothing.

use pka_ml::classify::{Classifier, Ensemble, GaussianNb, MlpClassifier, SgdClassifier};
use pka_ml::{Matrix, MlError};
use pka_stats::Executor;

/// A stub member with a fixed opinion, for engineering exact vote ties.
#[derive(Debug)]
struct Fixed(usize);

impl Classifier for Fixed {
    fn predict(&self, _sample: &[f64]) -> Result<usize, MlError> {
        Ok(self.0)
    }
}

/// Two classes mirrored around the origin: the midpoint sample `0.0` has
/// exactly equal Gaussian log-posteriors (same priors, same variances,
/// means at `-1` and `+1`).
fn mirrored_gnb() -> GaussianNb {
    let x = Matrix::from_rows(&[vec![-1.5], vec![-0.5], vec![0.5], vec![1.5]]).unwrap();
    // Deliberately non-contiguous labels, listed out of order: `classes()`
    // must sort them, and the tie must go to the *label* order, not the
    // order of first appearance.
    let y = [5, 5, 2, 2];
    GaussianNb::fit(&x, &y).unwrap()
}

#[test]
fn gnb_equal_posterior_tie_resolves_to_highest_label() {
    let gnb = mirrored_gnb();
    assert_eq!(gnb.classes(), &[2, 5], "labels are stored ascending");
    // Strictly inside either lobe the argmax is unambiguous...
    assert_eq!(gnb.predict(&[-1.0]).unwrap(), 5);
    assert_eq!(gnb.predict(&[1.0]).unwrap(), 2);
    // ...and the exact tie at the midpoint picks the last (= highest) label.
    assert_eq!(gnb.predict(&[0.0]).unwrap(), 5);
}

#[test]
fn ensemble_vote_count_tie_goes_to_the_earliest_member() {
    // 1-1 split: the first member's vote wins.
    let e = Ensemble::new(vec![Box::new(Fixed(2)), Box::new(Fixed(5))]);
    assert_eq!(e.predict(&[0.0]).unwrap(), 2);
    let e = Ensemble::new(vec![Box::new(Fixed(5)), Box::new(Fixed(2))]);
    assert_eq!(e.predict(&[0.0]).unwrap(), 5);

    // A real member first: the tied GNB votes 5 at the midpoint, the stub
    // disagrees, and the earliest vote (GNB's) carries.
    let e = Ensemble::new(vec![Box::new(mirrored_gnb()), Box::new(Fixed(2))]);
    assert_eq!(e.predict(&[0.0]).unwrap(), 5);

    // 2-2 split with four members: still the earliest vote, not the larger
    // label or the later pair.
    let e = Ensemble::new(vec![
        Box::new(Fixed(3)),
        Box::new(Fixed(1)),
        Box::new(Fixed(1)),
        Box::new(Fixed(3)),
    ]);
    assert_eq!(e.predict(&[0.5]).unwrap(), 3);
}

#[test]
fn refit_with_same_seed_reproduces_every_prediction() {
    // Mirrored training data puts the decision boundary through the origin,
    // so a grid straddling it probes near-tie scores on all three models.
    let x = Matrix::from_rows(&[
        vec![-2.0, 1.0],
        vec![-1.0, 0.5],
        vec![1.0, -0.5],
        vec![2.0, -1.0],
    ])
    .unwrap();
    let y = [0, 0, 1, 1];
    let grid: Vec<Vec<f64>> = (-8..=8)
        .map(|i| vec![i as f64 / 4.0, -(i as f64) / 8.0])
        .collect();
    let predict_grid =
        |c: &dyn Classifier| -> Vec<usize> { grid.iter().map(|s| c.predict(s).unwrap()).collect() };

    let sgd_a = predict_grid(&SgdClassifier::fit(&x, &y, 7).unwrap());
    let sgd_b = predict_grid(&SgdClassifier::fit(&x, &y, 7).unwrap());
    assert_eq!(sgd_a, sgd_b, "SGD refit with the same seed is bit-stable");

    let mlp_a = predict_grid(&MlpClassifier::fit(&x, &y, 7).unwrap());
    let mlp_b = predict_grid(&MlpClassifier::fit(&x, &y, 7).unwrap());
    assert_eq!(mlp_a, mlp_b, "MLP refit with the same seed is bit-stable");

    let gnb_a = predict_grid(&GaussianNb::fit(&x, &y).unwrap());
    let gnb_b = predict_grid(&GaussianNb::fit(&x, &y).unwrap());
    assert_eq!(gnb_a, gnb_b, "GNB refit is bit-stable");
}

#[test]
fn tie_labels_are_identical_across_worker_counts() {
    // The streaming tail classifies chunks through Executor::try_map; labels
    // for tie-heavy samples must not depend on the fan-out width.
    let gnb = mirrored_gnb();
    let ensemble = Ensemble::new(vec![Box::new(mirrored_gnb()), Box::new(Fixed(2))]);
    // Every sample sits exactly on the GNB decision boundary.
    let samples: Vec<Vec<f64>> = (0..997).map(|_| vec![0.0]).collect();

    let labels_with = |exec: Executor, model: &(dyn Classifier + Sync)| -> Vec<usize> {
        exec.try_map(&samples, |_, s| model.predict(s))
            .expect("in-dimension samples classify")
    };

    let gnb_seq = labels_with(Executor::sequential(), &gnb);
    assert!(
        gnb_seq.iter().all(|&l| l == 5),
        "tie resolves high everywhere"
    );
    let ens_seq = labels_with(Executor::sequential(), &ensemble);
    assert!(ens_seq.iter().all(|&l| l == 5), "earliest vote everywhere");
    for workers in [2, 4] {
        let exec = Executor::new(workers);
        assert_eq!(labels_with(exec, &gnb), gnb_seq, "workers={workers}");
        assert_eq!(labels_with(exec, &ensemble), ens_seq, "workers={workers}");
    }
}
