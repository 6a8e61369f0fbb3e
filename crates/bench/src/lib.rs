//! The benchmark harness: regenerates every table and figure of the PKA
//! paper (see DESIGN.md §4 for the experiment index).
//!
//! * [`ExperimentRunner`] — memoised execution of the building blocks
//!   (silicon runs, selections, and `pka-core` simulation reports with or
//!   without the full-simulation baseline) across GPU configurations, so
//!   that the full table battery runs each expensive simulation once.
//! * [`tables`] — the per-figure/table report generators, each returning a
//!   serialisable record set and a formatted text table.
//!
//! The `tables` binary drives everything:
//!
//! ```text
//! cargo run --release -p pka-bench --bin tables -- all
//! cargo run --release -p pka-bench --bin tables -- fig7 fig8
//! cargo run --release -p pka-bench --bin tables -- --quick all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod runner;
pub mod tables;

pub use runner::{ExperimentRunner, RunnerOptions};
