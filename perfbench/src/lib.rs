//! # flexstep-perfbench
//!
//! The repository benchmark (`BENCHMARK.json`): four FlexStep workloads
//! run through the public API, end-to-end host-speed metrics from an
//! untraced run, and a per-layer table from a separate traced run. See
//! `README.md` in this directory for why each workload is in it, every
//! metric's definition and unit, and which layer moves which metric.
//!
//! The benchmark is one process. It starts no threads of its own; the
//! campaign workload's `campaignd run` uses one worker, which runs on
//! one scoped thread while the calling thread waits for it.

#![warn(missing_docs)]

pub mod bench;
pub mod host;
pub mod pass;
pub mod stats;
pub mod workload;

pub use bench::{bench, Config, Report, END_TO_END, PER_LAYER};
pub use workload::{Size, Workload, WORKLOADS};
