//! Exact tail-classifier pins: a 64-bit digest over the bits of every
//! number a fitted `MlpClassifier` and `SgdClassifier` hold (scaler,
//! classes and weights), trained on the detailed prefix the stream engine
//! trains on — the first 2,000 records of the synthetic workload, labelled
//! by batch PKS. A change that only makes training faster must leave both
//! digests as they are.

use principal_kernel_analysis::core::{Pks, PksConfig};
use principal_kernel_analysis::gpu::GpuConfig;
use principal_kernel_analysis::ml::classify::{MlpClassifier, SgdClassifier};
use principal_kernel_analysis::ml::Matrix;
use principal_kernel_analysis::profile::Profiler;
use principal_kernel_analysis::stats::hash::mix64;
use principal_kernel_analysis::stream::{synthetic_workload, KernelSource, WorkloadSource};

const PREFIX: usize = 2_000;

/// Lightweight features and PKS labels of the synthetic prefix.
fn prefix() -> (Matrix, Vec<usize>) {
    let mut source = WorkloadSource::new(
        synthetic_workload(100_000),
        Profiler::new(GpuConfig::v100()),
    );
    let mut detailed = Vec::with_capacity(PREFIX);
    let mut rows = Vec::with_capacity(PREFIX);
    for _ in 0..PREFIX {
        let record = source
            .next_record(true)
            .expect("synthetic record")
            .expect("workload is longer than the prefix");
        rows.push(record.lightweight.to_feature_vector());
        detailed.push(record.detailed.expect("detailed view"));
    }
    let selection = Pks::new(PksConfig::default())
        .select(&detailed)
        .expect("PKS selects on the prefix");
    let x = Matrix::from_rows(&rows).expect("feature matrix");
    (x, selection.labels().to_vec())
}

/// Folds the bits of every number in a model's `Debug` rendering, in
/// order. `Debug` prints each `f64` in its shortest round-trip form, so
/// parsing it back yields the exact value and its exact bits.
fn digest(model: &impl std::fmt::Debug) -> (usize, u64) {
    let text = format!("{model:?}");
    let numbers: Vec<f64> = text
        .split(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e')))
        .filter_map(|token| token.parse::<f64>().ok())
        .collect();
    let hash = numbers
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, x| mix64(h ^ x.to_bits()));
    (numbers.len(), hash)
}

/// A second training set, unlike the prefix in shape: three features,
/// two classes labelled 3 and 8. Every feature is skewed by a few large
/// rows, so about two thirds of the standardised values are negative, and
/// with the pinned seed three of the MLP's 16 hidden units are dead on
/// over 90% of the training steps (every other unit on 1–22%): the sign
/// of zero sums and the skipped updates of dead units both reach the
/// pinned bits.
fn skewed() -> (Matrix, Vec<usize>) {
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for i in 0..240u32 {
        let t = f64::from(i);
        let spike = if i % 16 == 0 { 40.0 + t * 0.25 } else { 0.0 };
        rows.push(vec![
            f64::from(i % 7) * 0.125 + spike,
            f64::from(i % 5) * -0.5 - spike * 0.5,
            f64::from((i * 37) % 11) * 0.0625 + spike * 2.0,
        ]);
        y.push(if (i % 7) + (i % 5) >= 5 || spike > 0.0 {
            8
        } else {
            3
        });
    }
    (Matrix::from_rows(&rows).expect("feature matrix"), y)
}

#[test]
fn classifiers_fit_to_pinned_bits_on_a_skewed_set() {
    let (x, y) = skewed();
    let sgd = SgdClassifier::fit(&x, &y, 5).expect("sgd fits");
    let mlp = MlpClassifier::fit(&x, &y, 0xff).expect("mlp fits");
    let pins = [
        ("sgd", digest(&sgd), (16, 6279162307120512168)),
        ("mlp", digest(&mlp), (108, 9561452368913013406)),
    ];
    for (name, got, want) in pins {
        assert_eq!(got, want, "{name}: (numbers, digest) moved");
    }
}

#[test]
fn tail_classifiers_fit_to_pinned_bits() {
    let (x, y) = prefix();
    // The seeds the stream engine's default configuration trains with.
    let sgd = SgdClassifier::fit(&x, &y, 0).expect("sgd fits");
    let mlp = MlpClassifier::fit(&x, &y, 0xff).expect("mlp fits");
    let pins = [
        ("sgd", digest(&sgd), (136, 17988098930126469737)),
        ("mlp", digest(&mlp), (378, 17304907448138152025)),
    ];
    for (name, got, want) in pins {
        assert_eq!(got, want, "{name}: (numbers, digest) moved");
    }
}
