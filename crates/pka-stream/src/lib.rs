//! Bounded-memory streaming ingestion and **online Principal Kernel
//! Selection** for million-kernel workloads.
//!
//! The paper's whole reason for two-level profiling is that MLPerf-scale
//! applications emit *millions* of kernel launches — too many to hold,
//! profile, or re-cluster in batch. The batch pipeline in `pka-core` still
//! materialises the full record list before `Pks::select` runs; this crate
//! is the streaming counterpart, shaped after Pac-Sim's live-decision
//! design: sampling decisions are made *as records arrive*, in
//! `O(K·d + reservoir)` memory, independent of stream length.
//!
//! The subsystem is three layers:
//!
//! * [`KernelSource`] — a pull-based record stream with adapters for
//!   in-memory [`pka_profile`] records ([`RecordsSource`]), lazily
//!   materialised [`pka_workloads`] generators ([`WorkloadSource`], which
//!   also backs the `synthetic:N` million-kernel streams via
//!   [`synthetic_workload`]), and a JSONL file/stdin reader
//!   ([`JsonlSource`]).
//! * online state — streaming feature normalisation (Welford accumulators
//!   from `pka_stats::online`, one per lightweight feature), mini-batch
//!   K-Means centroids seeded from the detailed prefix, per-group drift
//!   envelopes ([`DriftTracker`]) and a stateless-RNG reservoir sample.
//! * [`StreamPks`] — the online pipeline itself: detailed prefix → batch
//!   PKS + classifier ensemble (exactly the paper's two-level split, so the
//!   selected K matches the batch pipeline bit-for-bit), then live tail
//!   classification through the same memoised ensemble the batch pipeline
//!   uses, with periodic resumable checkpoints ([`Checkpoint`], schema
//!   `pka.stream_checkpoint/v1`).
//!
//! [`StreamJob`] is that pipeline as `pka stream` and the `pka serve`
//! stream sessions both run it: resume from a checkpoint file, config
//! overrides, and one atomic write per checkpoint.
//!
//! # Examples
//!
//! ```
//! use pka_gpu::GpuConfig;
//! use pka_profile::Profiler;
//! use pka_stream::{StreamConfig, StreamPks, WorkloadSource, synthetic_workload};
//!
//! let workload = synthetic_workload(5_000);
//! let mut source = WorkloadSource::new(workload, Profiler::new(GpuConfig::v100()));
//! let stream = StreamPks::new(StreamConfig::default().with_prefix(500));
//! let outcome = stream.run(&mut source, |_checkpoint| Ok(()))?;
//! assert_eq!(outcome.report.records, 5_000);
//! assert!(outcome.report.selected_k >= 1);
//! # Ok::<(), pka_stream::StreamError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod checkpoint;
mod drift;
mod error;
mod job;
mod json_text;
mod normalize;
mod pipeline;
mod source;

pub use cancel::CancelToken;
pub use checkpoint::{Checkpoint, ReservoirItem, ReservoirState, CHECKPOINT_SCHEMA};
pub use drift::{Drift, DriftTracker};
pub use error::StreamError;
pub use job::{ConfigOverrides, StreamJob};
pub use normalize::StreamingNormalizer;
pub use pipeline::{StreamConfig, StreamOutcome, StreamPks, StreamReport};
pub use source::{
    synthetic_workload, FeedHandle, FeedSource, JsonlSource, KernelSource, RecordsSource,
    SourceRecord, WorkloadSource,
};
