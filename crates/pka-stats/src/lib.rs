//! Numeric substrate for the Principal Kernel Analysis toolkit.
//!
//! This crate provides the small, dependency-free statistical building blocks
//! that the rest of the workspace is built on:
//!
//! * [`OnlineStats`] — single-pass (Welford) mean/variance/min/max, mergeable.
//! * [`WelfordColumns`] — a bank of [`OnlineStats`] sharing one count, in
//!   column layout: the streaming normalizer's per-record fold and z-score,
//!   bitwise identical to one [`OnlineStats`] per feature.
//! * [`RollingStats`] — fixed-window rolling mean and standard deviation, the
//!   primitive behind Principal Kernel Projection's IPC-stability detector.
//! * [`error`] — the error metrics used throughout the paper's evaluation
//!   (absolute percentage error, MAPE, mean absolute error).
//! * [`summary`] — batch summaries: geometric mean, mean, median, percentiles.
//! * [`hash`] — stable, platform-independent FNV-1a hashing used to derive
//!   deterministic per-kernel seeds from workload and kernel names.
//! * [`exec`] — a scoped-thread [`Executor`] whose parallel maps return
//!   results in item order, so every PKA stage can fan out across cores
//!   while staying bitwise identical to its sequential run.
//! * [`bootstrap`] — seeded bootstrap confidence intervals for the suite
//!   aggregates the experiment harness reports.
//!
//! # Examples
//!
//! ```
//! use pka_stats::{OnlineStats, RollingStats};
//!
//! let mut o = OnlineStats::new();
//! for x in [1.0, 2.0, 3.0, 4.0] {
//!     o.push(x);
//! }
//! assert_eq!(o.mean(), 2.5);
//!
//! let mut r = RollingStats::new(2);
//! r.push(1.0);
//! r.push(3.0);
//! r.push(5.0); // window now holds [3.0, 5.0]
//! assert_eq!(r.mean(), 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod error;
pub mod exec;
pub mod hash;
mod online;
mod rolling;
pub mod summary;

pub use exec::Executor;
pub use online::{OnlineStats, WelfordColumns};
pub use rolling::RollingStats;
