//! Principal Kernel Analysis — the paper's contribution.
//!
//! PKA makes simulation of scaled GPU workloads tractable with two
//! complementary reductions plus an automated pipeline:
//!
//! * **Principal Kernel Selection** ([`Pks`]) — inter-kernel reduction.
//!   Standardise the 12 Table 2 metrics from detailed silicon profiling,
//!   project with PCA, sweep K-Means over K = 1..20, and keep the smallest
//!   K whose projected total-cycle error against silicon is below the
//!   target (5% throughout the paper). One representative kernel per group
//!   — by default the first chronological one — stands in for the whole
//!   group, its cycles scaled by the group population.
//! * **Two-level profiling** ([`TwoLevel`]) — when detailed profiling would
//!   take more than a week, profile only the first *j* kernels in detail,
//!   cluster those, then map the remaining lightweight records (name +
//!   launch geometry + PyProf annotations) onto the groups with an
//!   SGD/naive-Bayes/MLP classifier ensemble.
//! * **Principal Kernel Projection** ([`PkpMonitor`]) — intra-kernel
//!   reduction. Watch the rolling standard deviation of instantaneous IPC
//!   over the last 3000 cycles during simulation; once it drops below the
//!   confidence threshold `s` (0.25 everywhere in the paper) *and* a full
//!   wave of thread blocks has retired (waived for sub-wave grids), stop
//!   and linearly project the remaining cycles and metrics.
//! * **The PKA pipeline** ([`Pka`]) — profiling → selection → monitored
//!   simulation → application-level projection, producing the error /
//!   speedup / simulation-time numbers of Table 4.
//!
//! # Examples
//!
//! ```
//! use pka_core::{Pka, PkaConfig};
//! use pka_gpu::GpuConfig;
//! use pka_workloads::rodinia;
//!
//! let gaussian = rodinia::workloads()
//!     .into_iter()
//!     .find(|w| w.name() == "gauss_208")
//!     .expect("exists");
//! let pka = Pka::new(GpuConfig::v100(), PkaConfig::default());
//! let selection = pka.select_kernels(&gaussian)?;
//! // 414 launches fold into a single principal kernel.
//! assert!(selection.k() <= 2);
//! # Ok::<(), pka_core::PkaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribution;
mod error;
mod features;
mod pipeline;
mod pkp;
mod pks;
mod two_level;

pub use attribution::{
    selection_attribution, simulation_attribution, ErrorAttribution, GroupAttribution,
    GroupProvenance, RepSimulation, ATTRIBUTION_SCHEMA,
};
pub use error::PkaError;
pub use features::feature_matrix;
pub use pipeline::{Pka, PkaConfig, RepProjection, SiliconPksReport, SimulationReport};
pub use pka_stats::Executor;
pub use pkp::{PkpConfig, PkpMonitor, ProjectedKernel};
pub use pks::{KernelGroup, Pks, PksConfig, RepresentativePolicy, Selection};
pub use two_level::{fit_tail_ensemble, TwoLevel, TwoLevelConfig};
