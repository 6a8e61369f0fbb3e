//! A cycle-level GPU timing simulator — the Accel-Sim stand-in for the
//! Principal Kernel Analysis reproduction.
//!
//! The paper evaluates PKA by integrating it into Accel-Sim and comparing
//! sampled simulation against silicon. This crate plays Accel-Sim's role: it
//! expands a [`KernelDescriptor`](pka_gpu::KernelDescriptor) into per-warp
//! instruction traces and runs them through a structural timing model —
//! warp schedulers with scoreboard-style dependence stalls, per-class
//! execution-pipe throughput, a real set-associative L1 (per SM) and shared
//! L2, a channelised DRAM bandwidth/latency model, wave-based thread-block
//! dispatch, and barrier synchronisation. Because the model is structural,
//! the instantaneous-IPC time series it produces exhibits the warmup ramps,
//! phase shifts and wave-boundary dips that *Principal Kernel Projection*
//! exploits; and because it is *not* the same model as the analytical
//! silicon executor, a realistic simulator-vs-silicon error emerges.
//!
//! Key types:
//!
//! * [`Simulator`] / [`SimOptions`] — configure and run kernels.
//! * [`KernelSimResult`] — cycles, instructions, the sampled IPC series,
//!   DRAM utilisation, L2 miss rate and block-completion state.
//! * [`SimMonitor`] — an online observer invoked at every IPC sample; PKA's
//!   stability detector and the 1-billion-instruction baseline both plug in
//!   here. [`Simulator::run_kernel_with_stop`] returns both the full run and
//!   the run up to the monitor's stop from one engine pass.
//! * [`cost`] — the wall-clock cost model used to *project* simulation
//!   times for workloads that would take years to actually run (Figures 1
//!   and 6).
//!
//! # Examples
//!
//! ```
//! use pka_gpu::{GpuConfig, KernelDescriptor};
//! use pka_sim::{SimOptions, Simulator};
//!
//! let sim = Simulator::new(GpuConfig::v100(), SimOptions::default());
//! let kernel = KernelDescriptor::builder("k")
//!     .grid_blocks(160)
//!     .block_threads(128)
//!     .fp32_per_thread(200)
//!     .global_loads_per_thread(8)
//!     .build()?;
//! let result = sim.run_kernel(&kernel)?;
//! assert!(result.cycles > 0);
//! assert_eq!(result.blocks_completed, 160);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod cost;
mod dram;
mod engine;
mod icnt;
mod monitor;
mod trace;

pub use cache::SetAssocCache;
pub use dram::DramModel;
pub use engine::{KernelSimResult, SimError, SimOptions, Simulator};
pub use icnt::Interconnect;
pub use monitor::{
    IpcSample, MaxCyclesMonitor, MaxInstructionsMonitor, NullMonitor, SampleContext, SimControl,
    SimMonitor,
};
pub use trace::{WarpCursor, WarpProgram};

// The PKA pipeline fans per-kernel simulations out across scoped threads,
// sharing one `Simulator` by reference. These assertions fail to compile if
// a future change (e.g. interior-mutable caches) silently loses
// thread-safety rather than surfacing it at the fan-out call sites.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Simulator>();
    assert_send_sync::<SimOptions>();
    assert_send_sync::<SimError>();
    assert_send_sync::<KernelSimResult>();
};
