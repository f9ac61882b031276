//! Benchmark of the state-space explorer, driven from outside through the
//! public API of `cbh_verify` and `cbh_model`.
//!
//! - [`workload`]: the four workloads, their seeded inputs and golden pins;
//! - [`timed`]: the end-to-end mode (`--trace 0`);
//! - [`traced`]: the per-layer mode (`--trace 1`), fed by [`replay`]'s BFS
//!   and probes and [`spans`]' recorder;
//! - [`report`]: the result line and its parser.
//!
//! `README.md` beside this crate documents the workloads, the metrics and
//! the measured spread.

pub mod replay;
pub mod report;
pub mod spans;
pub mod timed;
pub mod traced;
pub mod workload;
