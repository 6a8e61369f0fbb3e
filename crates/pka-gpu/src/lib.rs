//! GPU execution-model substrate for Principal Kernel Analysis.
//!
//! The paper evaluates PKA on real Nvidia silicon (Volta V100, Turing
//! RTX 2060, Ampere RTX 3070) profiled with Nsight. This environment has no
//! GPU, so this crate supplies the synthetic equivalent (see DESIGN.md §2):
//!
//! * [`GpuConfig`] — an architecture description with presets for the three
//!   generations the paper studies, plus the half-SM MPS configuration used
//!   by the Figure 10 case study.
//! * [`KernelDescriptor`] — a declarative description of one kernel launch:
//!   grid geometry, per-thread instruction mix, memory behaviour, and phase
//!   structure. Workload generators produce streams of these.
//! * [`KernelMetrics`] — the 12 microarchitecture-agnostic metrics of
//!   Table 2, derivable from any descriptor for any architecture (the ISA
//!   scale factor models the instruction-count drift between generations the
//!   paper discusses in Section 3.1).
//! * [`Occupancy`] — the blocks-per-SM / wave-size calculator that
//!   *Principal Kernel Projection* needs for its full-wave constraint.
//! * [`SiliconExecutor`] — an analytical performance model standing in for
//!   real silicon: given a descriptor it returns cycles, runtime, DRAM
//!   utilisation and cache behaviour, deterministically.
//!
//! The cycle-level *timing* simulator (the Accel-Sim stand-in) lives in the
//! `pka-sim` crate and consumes the same descriptors.
//!
//! # Examples
//!
//! ```
//! use pka_gpu::{GpuConfig, KernelDescriptor, SiliconExecutor};
//!
//! let config = GpuConfig::v100();
//! let kernel = KernelDescriptor::builder("saxpy")
//!     .grid_blocks(1024)
//!     .block_threads(256)
//!     .fp32_per_thread(64)
//!     .global_loads_per_thread(2)
//!     .global_stores_per_thread(1)
//!     .build()?;
//! let silicon = SiliconExecutor::new(config);
//! let result = silicon.execute(&kernel)?;
//! assert!(result.cycles > 0);
//! # Ok::<(), pka_gpu::GpuError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod error;
mod kernel;
mod metrics;
mod occupancy;
mod silicon;

pub use arch::{GpuConfig, GpuConfigBuilder, GpuGeneration};
pub use error::GpuError;
pub use kernel::{
    Dim3, InstClass, KernelDescriptor, KernelDescriptorBuilder, KernelId, KernelPhase,
};
pub use metrics::KernelMetrics;
pub use occupancy::Occupancy;
pub use silicon::{base_latency, warp_throughput, SiliconExecutor, SiliconResult};
