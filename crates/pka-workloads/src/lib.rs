//! Synthetic reproductions of the 147 GPU workloads studied by the PKA
//! paper.
//!
//! The paper evaluates Principal Kernel Analysis on the complete Rodinia,
//! Parboil, Polybench, CUTLASS and DeepBench suites plus seven MLPerf
//! applications. None of those can run here (no GPU, no CUDA), but PKA
//! never looks at program semantics — it consumes *kernel launch streams*
//! with per-kernel metrics. This crate reproduces those streams: for every
//! workload, a [`Workload`] holds a lazily-expanded sequence of
//! [`KernelDescriptor`](pka_gpu::KernelDescriptor)s whose structure matches
//! what the paper reports (kernel counts, natural cluster compositions,
//! grid-size variation, compute-versus-memory character, regular versus
//! irregular phase behaviour). SSD training really does launch 5.3 million
//! kernels — lazily, in `O(#templates)` memory.
//!
//! Suites:
//!
//! * [`rodinia`] — 27 workloads (`gaussian_208` = 414 one-group kernels, …)
//! * [`parboil`] — 8 workloads
//! * [`polybench`] — 16 workloads (`gramschmidt` = 6 natural groups, …)
//! * [`cutlass`] — 20 GEMM configurations (10 SGEMM + 10 tensor-core)
//! * [`deepbench`] — 69 convolution/GEMM/RNN configurations
//! * [`mlperf`] — 7 scaled applications (ResNet, SSD, BERT, GNMT, 3D-UNet)
//!
//! # Examples
//!
//! ```
//! use pka_workloads::{all_workloads, Suite};
//!
//! let all = all_workloads();
//! assert_eq!(all.len(), 147);
//! let mlperf = all.iter().filter(|w| w.suite() == Suite::MlPerf).count();
//! assert_eq!(mlperf, 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
pub mod cutlass;
pub mod deepbench;
pub mod mlperf;
pub mod parboil;
pub mod polybench;
pub mod rodinia;
mod workload;

pub use workload::{KernelTemplate, LaunchView, Suite, Workload, WorkloadBuilder};

/// All 147 workloads, grouped suite by suite in the paper's order.
pub fn all_workloads() -> Vec<Workload> {
    let mut out = Vec::with_capacity(147);
    out.extend(rodinia::workloads());
    out.extend(parboil::workloads());
    out.extend(polybench::workloads());
    out.extend(cutlass::workloads());
    out.extend(deepbench::workloads());
    out.extend(mlperf::workloads());
    out
}

/// The workload named `name` (as `pka list` prints it), if any.
pub fn workload_by_name(name: &str) -> Option<Workload> {
    all_workloads().into_iter().find(|w| w.name() == name)
}

/// The classic (non-MLPerf) workloads — the set for which full simulation
/// is tractable and against which TBPoint can be compared.
pub fn classic_workloads() -> Vec<Workload> {
    all_workloads()
        .into_iter()
        .filter(|w| w.suite() != Suite::MlPerf)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_147_workloads() {
        assert_eq!(all_workloads().len(), 147);
    }

    #[test]
    fn suite_sizes_match_the_paper() {
        let all = all_workloads();
        let count = |s: Suite| all.iter().filter(|w| w.suite() == s).count();
        assert_eq!(count(Suite::Rodinia), 27);
        assert_eq!(count(Suite::Parboil), 8);
        assert_eq!(count(Suite::Polybench), 16);
        assert_eq!(count(Suite::Cutlass), 20);
        assert_eq!(count(Suite::Deepbench), 69);
        assert_eq!(count(Suite::MlPerf), 7);
    }

    #[test]
    fn names_are_unique() {
        let all = all_workloads();
        let mut names: Vec<&str> = all.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate workload names");
    }

    #[test]
    fn every_kernel_is_addressable_and_valid() {
        for w in classic_workloads() {
            let n = w.kernel_count();
            assert!(n > 0, "{} has no kernels", w.name());
            // Spot-check first, middle, last.
            for id in [0, n / 2, n - 1] {
                let k = w.kernel(id.into());
                assert!(k.instructions_per_thread() > 0, "{} kernel {id}", w.name());
            }
        }
    }

    #[test]
    fn iterator_agrees_with_random_access() {
        for w in all_workloads().into_iter().take(5) {
            for (id, k) in w.iter().take(50) {
                assert_eq!(k, w.kernel(id), "{} kernel {id}", w.name());
            }
        }
    }

    #[test]
    fn mlperf_is_scaled() {
        let ssd = mlperf::workloads()
            .into_iter()
            .find(|w| w.name().contains("ssd"))
            .expect("ssd exists");
        assert!(ssd.kernel_count() > 5_000_000, "{}", ssd.kernel_count());
    }
}
