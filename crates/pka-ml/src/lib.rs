//! From-scratch machine-learning substrate for Principal Kernel Analysis.
//!
//! The PKA paper leans on a handful of classic algorithms: PCA + K-Means for
//! *Principal Kernel Selection*, three lightweight classifiers (stochastic
//! gradient descent, Gaussian naive Bayes, multilayer perceptron) for the
//! two-level profiling mapping, and agglomerative hierarchical clustering for
//! the TBPoint baseline. None of those exist in the allowed dependency set,
//! so this crate implements them directly:
//!
//! * [`Matrix`] — a small dense row-major matrix.
//! * [`StandardScaler`] — per-feature standardisation (fit/transform).
//! * [`Pca`] — principal component analysis via a symmetric Jacobi
//!   eigensolver.
//! * [`KMeans`] — Lloyd's algorithm with k-means++ seeding and a Hamerly-bounded
//!   assignment step, bitwise equal to plain Lloyd's.
//! * [`Agglomerative`] — average-linkage hierarchical clustering (quadratic
//!   memory, deliberately: the paper's point is that this does not scale).
//! * [`classify`] — [`SgdClassifier`](classify::SgdClassifier),
//!   [`GaussianNb`](classify::GaussianNb) and
//!   [`MlpClassifier`](classify::MlpClassifier) behind one
//!   [`Classifier`](classify::Classifier) trait, plus a majority-vote
//!   [`Ensemble`](classify::Ensemble).
//!
//! All algorithms are deterministic: anything stochastic takes an explicit
//! seed. Each numeric loop has one plain scalar implementation with a fixed
//! summation order, so results are bitwise reproducible on every host —
//! the property PKA's pinned checkpoints and golden tables rely on.
//!
//! # Examples
//!
//! ```
//! use pka_ml::{KMeans, Matrix};
//!
//! let data = Matrix::from_rows(&[
//!     vec![0.0, 0.0],
//!     vec![0.1, 0.0],
//!     vec![9.0, 9.0],
//!     vec![9.1, 9.0],
//! ])?;
//! let fit = KMeans::new(2).with_seed(7).fit(&data)?;
//! assert_eq!(fit.labels()[0], fit.labels()[1]);
//! assert_ne!(fit.labels()[0], fit.labels()[2]);
//! # Ok::<(), pka_ml::MlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
mod eigen;
mod error;
mod hierarchical;
mod kmeans;
mod matrix;
mod pca;
mod quality;
mod scaler;

pub use error::MlError;
pub use hierarchical::{Agglomerative, Dendrogram, Linkage};
pub use kmeans::{KMeans, KMeansFit};
pub use matrix::Matrix;
pub use pca::{Pca, PcaFit};
pub use quality::{davies_bouldin_index, silhouette_score};
pub use scaler::StandardScaler;
